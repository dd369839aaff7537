// hipads-lint: the project's own static rules, the ones generic tools
// cannot know. Each rule guards an invariant the paper's determinism or
// the serving stack's concurrency story depends on:
//
//   HL001  no nondeterminism primitives (rand, random_device, clock
//          reads, time()) in the deterministic estimator paths
//          (src/ads, src/sketch, src/graph, src/stream). Every HIP
//          statistic must be bitwise reproducible; a clock read or RNG
//          draw anywhere in those trees breaks that silently.
//   HL002  no iteration over std::unordered_{map,set} in sweep
//          collector code — the histogram's per-thread partials, their
//          seal and merge, EncodePartial/AbsorbPartial — or gather code
//          (src/ads/sweep*, src/serve). Hash-order iteration is the
//          classic way a "deterministic" reduction diverges across
//          libstdc++ versions or ASLR runs. Point lookups (find/erase)
//          are fine.
//   HL003  a SweepCollector subclass that overrides EncodePartial must
//          also override AbsorbPartial. The pair is the partial-state
//          seam the distributed gather rides on; overriding one side
//          only means remote partials decode through the wrong base
//          implementation.
//   HL004  every wire-protocol enum constant in serve/protocol.h must
//          be referenced in the serve encode/decode sources AND in the
//          fuzz corpus (tests/serve_fuzz_test.cc). An enumerator the
//          fuzzer never builds a frame for is untested wire surface.
//   HL005  no raw std::mutex / lock_guard / unique_lock /
//          condition_variable outside src/util/mutex.h. All locking
//          goes through the annotated hipads::Mutex wrapper so clang's
//          -Wthread-safety can prove lock discipline.
//   HL006  no wall-clock metric instruments (MetricHistogram,
//          ScopedLatencyTimer, registry Histogram lookups) in the
//          library trees outside src/serve (src/util/metrics.* itself
//          excepted; tools/ and tests/ are unrestricted). Counters and
//          gauges are fine anywhere — counts are thread-count
//          invariant — but a latency histogram smuggles a clock read
//          into paths HL001 keeps deterministic.
//
// Suppression: append `// hipads-lint: allow(HLxxx)` to the offending
// line. Allows are per-line and per-rule; there is no file-level or
// global opt-out, so every exception is visible at the point of use.

#ifndef HIPADS_TOOLS_HIPADS_LINT_H_
#define HIPADS_TOOLS_HIPADS_LINT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace hipads {
namespace lint {

struct Finding {
  std::string file;  // repo-relative, forward slashes
  size_t line = 0;   // 1-based
  std::string rule;  // "HL001" .. "HL006", or "IO" for unreadable files
  std::string message;
};

/// One file presented to the rule engine. `path` must be repo-relative
/// with forward slashes ("src/serve/server.cc") — rule scoping keys off
/// the prefix.
struct FileInput {
  std::string path;
  std::string content;
};

/// Runs every rule over the given files and returns the findings sorted
/// by (file, line, rule). Cross-file rules (HL004) see the whole set.
std::vector<Finding> RunLint(const std::vector<FileInput>& files);

/// Walks `root`/{src,tools,tests} for .h/.cc files (sorted, skipping
/// build directories) and runs RunLint. Unreadable files surface as
/// rule "IO" findings rather than aborting.
std::vector<Finding> LintTree(const std::string& root);

/// "file:line: rule-id: message" — the grep-able report line.
std::string FormatFinding(const Finding& f);

/// Replaces comment bodies and string/char-literal contents with spaces
/// (newlines preserved), so token rules never fire on prose or literals.
/// Exposed for tests.
std::string StripCommentsAndStrings(const std::string& text);

}  // namespace lint
}  // namespace hipads

#endif  // HIPADS_TOOLS_HIPADS_LINT_H_
