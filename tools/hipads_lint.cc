#include "tools/hipads_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace hipads {
namespace lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True if `text` contains `token` as a whole word: the characters on
/// both sides are not identifier characters. Tokens may contain "::".
bool ContainsToken(const std::string& text, const std::string& token) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t end = pos + token.size();
    bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// The per-file view every rule works on: original lines (for allow
/// comments), stripped lines (for token matching), and the stripped
/// text as one string (for brace/angle balancing across lines).
struct FileView {
  const FileInput* input = nullptr;
  std::string stripped;
  std::vector<std::string> raw_lines;
  std::vector<std::string> stripped_lines;
};

/// 1-based line number of byte offset `pos` in `text`.
size_t LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + pos, '\n'));
}

/// True when the ORIGINAL line carries an inline allow for `rule`:
///   ... // hipads-lint: allow(HL005)
bool LineAllows(const FileView& f, size_t line, const std::string& rule) {
  if (line == 0 || line > f.raw_lines.size()) return false;
  const std::string& raw = f.raw_lines[line - 1];
  size_t pos = raw.find("hipads-lint:");
  while (pos != std::string::npos) {
    size_t allow = raw.find("allow(", pos);
    if (allow == std::string::npos) break;
    size_t close = raw.find(')', allow);
    if (close == std::string::npos) break;
    std::string id = raw.substr(allow + 6, close - (allow + 6));
    if (id == rule) return true;
    pos = raw.find("hipads-lint:", close);
  }
  return false;
}

void Report(std::vector<Finding>* out, const FileView& f, size_t line,
            const std::string& rule, const std::string& message) {
  if (LineAllows(f, line, rule)) return;
  out->push_back(Finding{f.input->path, line, rule, message});
}

// ---------------------------------------------------------------------
// HL001 — nondeterminism primitives in deterministic estimator paths.
// ---------------------------------------------------------------------

bool InDeterministicPath(const std::string& path) {
  return StartsWith(path, "src/ads/") || StartsWith(path, "src/sketch/") ||
         StartsWith(path, "src/graph/") || StartsWith(path, "src/stream/");
}

void RunHL001(const FileView& f, std::vector<Finding>* out) {
  if (!InDeterministicPath(f.input->path)) return;
  static const char* kIdentTokens[] = {
      "rand",          "srand",        "random_device", "mt19937",
      "mt19937_64",    "steady_clock", "system_clock",  "high_resolution_clock",
  };
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& line = f.stripped_lines[i];
    for (const char* token : kIdentTokens) {
      if (ContainsToken(line, token)) {
        Report(out, f, i + 1, "HL001",
               std::string("nondeterminism primitive '") + token +
                   "' in a deterministic estimator path — HIP statistics "
                   "must be bitwise reproducible");
        break;
      }
    }
    // `time(` the libc call — word-bounded `time` directly followed by
    // `(` so RunTime(...), mtime(...) and the like stay silent.
    size_t pos = 0;
    while ((pos = line.find("time(", pos)) != std::string::npos) {
      if (pos == 0 || !IsIdentChar(line[pos - 1])) {
        Report(out, f, i + 1, "HL001",
               "call to time() in a deterministic estimator path");
        break;
      }
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------
// HL002 — hash-order iteration in sweep collector / gather code.
// ---------------------------------------------------------------------

bool InOrderSensitivePath(const std::string& path) {
  if (StartsWith(path, "src/serve/")) return true;
  if (StartsWith(path, "src/ads/") &&
      path.find("sweep") != std::string::npos) {
    return true;
  }
  return false;
}

/// Names of variables declared with an unordered container type in the
/// stripped text. Parsing is shallow on purpose: find the type token,
/// balance the template angle brackets, and read the declared
/// identifier after them (skipping function declarations, whose name is
/// followed by '(').
std::set<std::string> UnorderedContainerNames(const std::string& stripped) {
  std::set<std::string> names;
  static const char* kTypes[] = {"std::unordered_map<",
                                 "std::unordered_set<",
                                 "std::unordered_multimap<",
                                 "std::unordered_multiset<"};
  for (const char* type : kTypes) {
    size_t pos = 0;
    while ((pos = stripped.find(type, pos)) != std::string::npos) {
      size_t open = pos + std::string(type).size() - 1;
      int depth = 0;
      size_t i = open;
      for (; i < stripped.size(); ++i) {
        if (stripped[i] == '<') ++depth;
        if (stripped[i] == '>') {
          if (--depth == 0) break;
        }
      }
      pos = i;
      if (i >= stripped.size()) break;
      ++i;  // past the closing '>'
      while (i < stripped.size() &&
             (stripped[i] == ' ' || stripped[i] == '&' ||
              stripped[i] == '\n')) {
        ++i;
      }
      size_t name_begin = i;
      while (i < stripped.size() && IsIdentChar(stripped[i])) ++i;
      if (i == name_begin) continue;
      size_t after = i;
      while (after < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[after]))) {
        ++after;
      }
      if (after < stripped.size() && stripped[after] == '(') continue;
      names.insert(stripped.substr(name_begin, i - name_begin));
    }
  }
  return names;
}

void RunHL002(const FileView& f, std::vector<Finding>* out) {
  if (!InOrderSensitivePath(f.input->path)) return;
  std::set<std::string> names = UnorderedContainerNames(f.stripped);
  if (names.empty()) return;
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& line = f.stripped_lines[i];
    for (const std::string& name : names) {
      bool range_for = false;
      if (ContainsToken(line, "for")) {
        size_t colon = line.find(':');
        while (colon != std::string::npos && !range_for) {
          size_t j = colon + 1;
          while (j < line.size() && line[j] == ' ') ++j;
          if (line.compare(j, name.size(), name) == 0 &&
              (j + name.size() >= line.size() ||
               !IsIdentChar(line[j + name.size()]))) {
            range_for = true;
          }
          colon = line.find(':', colon + 1);
        }
      }
      bool iterated = range_for || ContainsToken(line, name + ".begin") ||
                      ContainsToken(line, name + ".cbegin");
      if (iterated) {
        Report(out, f, i + 1, "HL002",
               "iteration over unordered container '" + name +
                   "' in order-sensitive sweep/gather code — hash order "
                   "is not deterministic; iterate a sorted view instead");
      }
    }
  }
}

// ---------------------------------------------------------------------
// HL003 — EncodePartial override without AbsorbPartial override.
// ---------------------------------------------------------------------

/// True when the class body overrides `method`: an occurrence of the
/// method name whose declaration (text up to the next '{' or ';')
/// carries the `override` keyword.
bool OverridesMethod(const std::string& body, const std::string& method) {
  size_t pos = 0;
  while ((pos = body.find(method, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(body[pos - 1]);
    size_t decl_end = body.find_first_of("{;", pos);
    if (left_ok && decl_end != std::string::npos) {
      std::string decl = body.substr(pos, decl_end - pos);
      if (ContainsToken(decl, "override")) return true;
    }
    pos += method.size();
  }
  return false;
}

void RunHL003(const FileView& f, std::vector<Finding>* out) {
  const std::string& path = f.input->path;
  if (!StartsWith(path, "src/") || !EndsWith(path, ".h")) return;
  const std::string& text = f.stripped;
  for (const char* keyword : {"class ", "struct "}) {
    size_t pos = 0;
    while ((pos = text.find(keyword, pos)) != std::string::npos) {
      size_t decl = pos;
      pos += std::string(keyword).size();
      // Word boundary on the left ("subclass " must not match).
      if (decl > 0 && IsIdentChar(text[decl - 1])) continue;
      size_t name_begin = pos;
      while (name_begin < text.size() &&
             std::isspace(static_cast<unsigned char>(text[name_begin]))) {
        ++name_begin;
      }
      size_t name_end = name_begin;
      while (name_end < text.size() && IsIdentChar(text[name_end])) {
        ++name_end;
      }
      if (name_end == name_begin) continue;
      std::string name = text.substr(name_begin, name_end - name_begin);
      // Forward declarations and template parameters have no body.
      size_t body_or_semi = text.find_first_of("{;", name_end);
      if (body_or_semi == std::string::npos || text[body_or_semi] == ';') {
        continue;
      }
      size_t open = body_or_semi;
      int depth = 0;
      size_t i = open;
      for (; i < text.size(); ++i) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}') {
          if (--depth == 0) break;
        }
      }
      if (i >= text.size()) break;
      std::string body = text.substr(open, i - open);
      if (OverridesMethod(body, "EncodePartial") &&
          !OverridesMethod(body, "AbsorbPartial")) {
        Report(out, f, LineOf(text, decl), "HL003",
               "collector '" + name +
                   "' overrides EncodePartial without overriding "
                   "AbsorbPartial — remote partials would decode through "
                   "the base implementation");
      }
      pos = open + 1;
    }
  }
}

// ---------------------------------------------------------------------
// HL004 — wire-protocol enum coverage in serve sources + fuzz corpus.
// ---------------------------------------------------------------------

struct Enumerator {
  std::string enum_name;
  std::string name;
  size_t line = 0;
};

std::vector<Enumerator> ParseProtocolEnums(const std::string& stripped) {
  std::vector<Enumerator> result;
  size_t pos = 0;
  while ((pos = stripped.find("enum class ", pos)) != std::string::npos) {
    size_t name_begin = pos + std::string("enum class ").size();
    size_t name_end = name_begin;
    while (name_end < stripped.size() && IsIdentChar(stripped[name_end])) {
      ++name_end;
    }
    std::string enum_name =
        stripped.substr(name_begin, name_end - name_begin);
    size_t open = stripped.find('{', name_end);
    size_t close = open == std::string::npos
                       ? std::string::npos
                       : stripped.find('}', open);
    pos = name_end;
    if (open == std::string::npos || close == std::string::npos) continue;
    size_t entry_begin = open + 1;
    while (entry_begin < close) {
      size_t entry_end = stripped.find(',', entry_begin);
      if (entry_end == std::string::npos || entry_end > close) {
        entry_end = close;
      }
      size_t i = entry_begin;
      while (i < entry_end &&
             std::isspace(static_cast<unsigned char>(stripped[i]))) {
        ++i;
      }
      size_t id_end = i;
      while (id_end < entry_end && IsIdentChar(stripped[id_end])) ++id_end;
      if (id_end > i) {
        result.push_back(Enumerator{enum_name, stripped.substr(i, id_end - i),
                                    LineOf(stripped, i)});
      }
      entry_begin = entry_end + 1;
    }
    pos = close;
  }
  return result;
}

void RunHL004(const std::vector<FileView>& files,
              std::vector<Finding>* out) {
  const FileView* protocol = nullptr;
  const FileView* fuzz = nullptr;
  std::vector<const FileView*> serve_sources;
  for (const FileView& f : files) {
    if (EndsWith(f.input->path, "serve/protocol.h")) protocol = &f;
    if (EndsWith(f.input->path, "serve_fuzz_test.cc")) fuzz = &f;
    if (f.input->path.find("serve/") != std::string::npos &&
        EndsWith(f.input->path, ".cc")) {
      serve_sources.push_back(&f);
    }
  }
  if (protocol == nullptr) return;  // nothing to cross-check against
  for (const Enumerator& e : ParseProtocolEnums(protocol->stripped)) {
    std::string qualified = e.enum_name + "::" + e.name;
    bool in_src = false;
    for (const FileView* f : serve_sources) {
      if (ContainsToken(f->stripped, qualified)) {
        in_src = true;
        break;
      }
    }
    if (!in_src) {
      Report(out, *protocol, e.line, "HL004",
             "wire enum constant " + qualified +
                 " is not referenced by any serve/*.cc encode/decode "
                 "path — dead or unhandled wire surface");
    }
    if (fuzz != nullptr && !ContainsToken(fuzz->stripped, qualified)) {
      Report(out, *protocol, e.line, "HL004",
             "wire enum constant " + qualified +
                 " is not exercised by the fuzz corpus "
                 "(tests/serve_fuzz_test.cc)");
    }
  }
}

// ---------------------------------------------------------------------
// HL005 — raw locking primitives outside the annotated wrapper.
// ---------------------------------------------------------------------

void RunHL005(const FileView& f, std::vector<Finding>* out) {
  if (!StartsWith(f.input->path, "src/")) return;
  static const char* kBanned[] = {
      "std::mutex",           "std::recursive_mutex",
      "std::timed_mutex",     "std::recursive_timed_mutex",
      "std::shared_mutex",    "std::shared_timed_mutex",
      "std::lock_guard",      "std::unique_lock",
      "std::scoped_lock",     "std::shared_lock",
      "std::condition_variable", "std::condition_variable_any",
  };
  static const char* kBannedIncludes[] = {"<mutex>", "<condition_variable>",
                                          "<shared_mutex>"};
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& line = f.stripped_lines[i];
    for (const char* token : kBanned) {
      if (ContainsToken(line, token)) {
        Report(out, f, i + 1, "HL005",
               std::string("raw locking primitive '") + token +
                   "' — use hipads::Mutex / MutexLock / CondVar "
                   "(src/util/mutex.h) so -Wthread-safety can verify "
                   "the lock discipline");
        break;
      }
    }
    if (line.find("#include") != std::string::npos) {
      for (const char* inc : kBannedIncludes) {
        if (line.find(inc) != std::string::npos) {
          Report(out, f, i + 1, "HL005",
                 std::string("#include ") + inc +
                     " — include \"util/mutex.h\" instead");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// HL006 — wall-clock metric instruments outside the serving layer.
// ---------------------------------------------------------------------

void RunHL006(const FileView& f, std::vector<Finding>* out) {
  const std::string& path = f.input->path;
  if (!StartsWith(path, "src/")) return;
  if (StartsWith(path, "src/serve/")) return;
  if (StartsWith(path, "src/util/metrics.")) return;
  // "Histogram" word-bounded catches MetricsRegistry::Get().Histogram(...)
  // without firing on MetricHistogram (matched separately) or
  // HistogramValue (identifier continues).
  static const char* kBanned[] = {"MetricHistogram", "ScopedLatencyTimer",
                                  "Histogram"};
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& line = f.stripped_lines[i];
    for (const char* token : kBanned) {
      if (ContainsToken(line, token)) {
        Report(out, f, i + 1, "HL006",
               std::string("wall-clock metric instrument '") + token +
                   "' outside src/serve — latency histograms read clocks; "
                   "the deterministic trees may record counters and "
                   "gauges only");
        break;
      }
    }
  }
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw strings would need delimiter tracking; the codebase
          // has none, and a raw string only over-blanks, never
          // under-blanks, with this handling.
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < text.size()) out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < text.size() && next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": " << f.rule << ": " << f.message;
  return os.str();
}

std::vector<Finding> RunLint(const std::vector<FileInput>& files) {
  std::vector<FileView> views;
  views.reserve(files.size());
  for (const FileInput& input : files) {
    FileView v;
    v.input = &input;
    v.stripped = StripCommentsAndStrings(input.content);
    v.raw_lines = SplitLines(input.content);
    v.stripped_lines = SplitLines(v.stripped);
    views.push_back(std::move(v));
  }
  std::vector<Finding> findings;
  for (const FileView& v : views) {
    RunHL001(v, &findings);
    RunHL002(v, &findings);
    RunHL003(v, &findings);
    RunHL005(v, &findings);
    RunHL006(v, &findings);
  }
  RunHL004(views, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<Finding> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<FileInput> files;
  std::vector<Finding> findings;
  for (const char* subdir : {"src", "tools", "tests"}) {
    fs::path base = fs::path(root) / subdir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      fs::path p = it->path();
      std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      std::string rel = fs::relative(p, root, ec).generic_string();
      if (ec) rel = p.generic_string();
      std::ifstream in(p, std::ios::binary);
      if (!in) {
        findings.push_back(Finding{rel, 0, "IO", "cannot read file"});
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back(FileInput{rel, buf.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInput& a, const FileInput& b) {
              return a.path < b.path;
            });
  std::vector<Finding> lint_findings = RunLint(files);
  findings.insert(findings.end(), lint_findings.begin(),
                  lint_findings.end());
  return findings;
}

}  // namespace lint
}  // namespace hipads
