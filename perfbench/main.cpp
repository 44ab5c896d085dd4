// perfbench: runs one benchmark workload and prints its raw measurements as
// one JSON document on the last line of stdout. perfbench/run.py builds
// this program, runs it, and turns the samples into the reported metrics.
//
//   perfbench --workload <mlp_40b|ds_40b|real_uring|shared_4jobs>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Document: {workload, seed, trace, tail_base, tenant_tail_base,
// setup: {setup_s[], init_s[]}, iterations: {<column>[]},
// rounds: {<column>[]} (shared_4jobs), peak_rss_mb[], layers: {...},
// attempted, errors[], spans[] (traced)}.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace mlpo::perfbench {

f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

f64 process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<f64>(ts.tv_sec) + static_cast<f64>(ts.tv_nsec) * 1e-9;
}

f64 peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* name,
                     i64 index)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  const i64 parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  slot_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, layer, index, now_s(), 0, parent});
  tracer_->open_.push_back(static_cast<i64>(slot_));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[slot_].end_s = now_s();
  tracer_->open_.pop_back();
}

json::Value Tracer::to_json() const {
  json::Array out;
  const f64 epoch = spans_.empty() ? 0 : spans_.front().start_s;
  for (const Span& s : spans_) {
    json::Object o;
    o["name"] = s.name;
    o["layer"] = s.layer;
    o["index"] = s.index;
    o["start_s"] = s.start_s - epoch;
    o["end_s"] = s.end_s - epoch;
    o["parent"] = s.parent;
    out.emplace_back(std::move(o));
  }
  return out;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[5] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        o.workload = value;
        have[0] = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value, &used);
        have[1] = used == value.size();
      } else if (key == "--seconds") {
        o.seconds = std::stod(value, &used);
        have[2] = used == value.size() && o.seconds > 0;
      } else if (key == "--trace") {
        have[3] = value == "0" || value == "1";
        o.trace = value == "1";
      } else if (key == "--scratch") {
        o.scratch = value;
        have[4] = !value.empty();
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  for (const bool h : have) {
    if (!h) usage("every option is required and must be well formed");
  }
  return o;
}

}  // namespace
}  // namespace mlpo::perfbench

int main(int argc, char** argv) {
  using namespace mlpo;
  using namespace mlpo::perfbench;
  const Options opts = parse(argc, argv);
  Tracer tracer(opts.trace);
  json::Object doc;
  doc["workload"] = opts.workload;
  doc["seed"] = static_cast<f64>(opts.seed);
  doc["trace"] = opts.trace;
  try {
    run_workload(opts, tracer, doc);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (opts.trace) doc["spans"] = tracer.to_json();
  std::printf("%s\n", json::Value(std::move(doc)).dump().c_str());
  return 0;
}
