// Shared pieces of the repository benchmark driver: command-line options,
// the in-memory span recorder, and the workload / probe entry points.
//
// The driver times only the calls it makes into the library's public API;
// it adds no instrumentation inside src/. Spans are recorded on the single
// benchmark thread, kept in memory, and written out with the result.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/json.hpp"

namespace mlpo::perfbench {

struct Options {
  std::string workload;
  u64 seed = 0;
  f64 seconds = 10;
  bool trace = false;
  /// Directory the run may create files under (real-storage roots and
  /// probe files). The driver removes what it creates before exiting.
  std::string scratch;
};

/// Wall-clock seconds on a monotonic clock.
f64 now_s();
/// CPU seconds (user + system, every thread) this process has used.
f64 process_cpu_s();
/// Peak resident set size of this process so far, in MiB.
f64 peak_rss_mb();

/// Span recorder. Spans nest by call order on the one benchmark thread;
/// each names the library layer whose API the timed call enters. When
/// disabled a Scope records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A traced run records part of its loop as one batch span rather than
  /// a span per call; comparing the two parts prices the recorder. Spans
  /// already open stay valid across a switch.
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, const char* name,
          i64 index = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t slot_ = 0;
  };

  /// [{name, layer, index, start_s, end_s, parent}], parent -1 for roots.
  json::Value to_json() const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    i64 index;
    f64 start_s;
    f64 end_s;
    i64 parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<i64> open_;
};

/// Runs `opts.workload` and fills `out` with raw samples (see main.cpp for
/// the document layout). Throws std::invalid_argument for unknown names.
void run_workload(const Options& opts, Tracer& tracer, json::Object& out);

/// Per-layer probes shared by every workload (traced runs only).
struct ProbeSizes {
  u64 subgroup_elems = 0;  ///< real elements of one subgroup
  f64 time_scale = 1;      ///< the workload's SimClock scale
  bool storage = false;    ///< also time uring vs pread file transfers
};
void run_probes(const Options& opts, const ProbeSizes& sizes, Tracer& tracer,
                json::Object& layers);

}  // namespace mlpo::perfbench
