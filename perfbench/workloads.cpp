// The four benchmark workloads. Each is a closed loop driven from the one
// benchmark thread: a job starts its next iteration only when the previous
// one has returned (JobManager runs each tenant's loop on its own thread,
// which is the program's own concurrency). Time scales and sizes are fixed
// here and never read from the MLPO_* environment.
//
// Iterations carry increasing indices (run_iteration(i), i = 0..N-1): the
// alternating cache-friendly order and the gradient stream both key on the
// index, so replaying index 0 would measure a degenerate schedule.
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/uring_backend.hpp"
#include "perfbench.hpp"
#include "resilience/recovery_driver.hpp"
#include "runtime/job_manager.hpp"
#include "runtime/trainer.hpp"

namespace mlpo::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr u32 kSetupRepeats = 3;  ///< set-up samples per run (median kept)
constexpr u32 kWarmup = 2;        ///< leading iterations left unmeasured
/// The oracle run only has to be bit-exact, not timed: a large scale makes
/// its modelled sleeps negligible.
constexpr f64 kOracleTimeScale = 1e6;
constexpr u32 kSharedJobs = 4;
constexpr u32 kSharedIterations = 60;  ///< measured iterations per job/round

using Columns = std::map<std::string, json::Array>;

void push(Columns& c, const std::string& key, f64 value) {
  c[key].emplace_back(value);
}

json::Object to_object(Columns columns) {
  json::Object o;
  for (auto& [key, values] : columns) o[key] = std::move(values);
  return o;
}

/// Owns a directory under the scratch area and removes it on every exit
/// path, exceptions included.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// One iteration's report, flattened into sample columns.
void record_report(Columns& c, const IterationReport& r, u32 tenant,
                   u32 round) {
  push(c, "tenant", tenant);
  push(c, "round", round);
  push(c, "iter_vs", r.iteration_seconds());
  push(c, "forward_vs", r.forward_seconds);
  push(c, "backward_vs", r.backward_seconds);
  push(c, "update_vs", r.update_seconds);
  push(c, "update_mparams_per_s", r.update_throughput_mparams());
  push(c, "fetch_vs", r.fetch_seconds);
  push(c, "flush_vs", r.flush_seconds);
  push(c, "compute_vs", r.update_compute_seconds);
  push(c, "io_fraction", r.update_io_fraction());
  push(c, "fetched_bytes", static_cast<f64>(r.sim_bytes_fetched));
  push(c, "flushed_bytes", static_cast<f64>(r.sim_bytes_flushed));
  push(c, "cache_hits", r.host_cache_hits);
  push(c, "subgroups", r.subgroups_processed);
  push(c, "graph_frontier_high_water",
       static_cast<f64>(r.graph_frontier_high_water));
  push(c, "graph_tasks_stolen", static_cast<f64>(r.graph_tasks_stolen));
  push(c, "graph_idle_s", r.graph_executor_idle_seconds);
  push(c, "pool_acquires", static_cast<f64>(r.pool_acquires));
  push(c, "pool_heap_fallbacks", static_cast<f64>(r.pool_heap_fallbacks));
}

/// Sums the counters of several schedulers; the queue high-water mark
/// takes the maximum.
IoScheduler::Stats& operator+=(IoScheduler::Stats& a,
                               const IoScheduler::Stats& b) {
  for (std::size_t p = 0; p < kIoPriorityCount; ++p) {
    auto& x = a.priority[p];
    const auto& y = b.priority[p];
    x.submitted += y.submitted;
    x.completed += y.completed;
    x.failed += y.failed;
    x.cancelled += y.cancelled;
    x.sim_bytes += y.sim_bytes;
    x.queue_wait_seconds += y.queue_wait_seconds;
    x.service_seconds += y.service_seconds;
  }
  a.coalesced_batches += b.coalesced_batches;
  a.coalesced_requests += b.coalesced_requests;
  a.max_queue_depth = std::max(a.max_queue_depth, b.max_queue_depth);
  return a;
}

IoScheduler::Stats cluster_io_stats(ClusterSim& cluster) {
  IoScheduler::Stats total;
  for (u32 n = 0; n < cluster.node_count(); ++n) {
    NodeSim& node = cluster.node(n);
    for (u32 w = 0; w < node.worker_count(); ++w) total += node.worker(w).io().stats();
  }
  return total;
}

/// Scheduler counters over a window: per class requests (completed +
/// failed), cancellations, summed queue wait and service (virtual s).
json::Object io_window(const IoScheduler::Stats& before,
                       const IoScheduler::Stats& after) {
  static const char* kClass[kIoPriorityCount] = {"demand", "grad", "flush",
                                                 "ckpt"};
  json::Object o;
  for (std::size_t p = 0; p < kIoPriorityCount; ++p) {
    const auto& a = after.priority[p];
    const auto& b = before.priority[p];
    json::Object cls;
    cls["requests"] = static_cast<f64>(a.completed + a.failed - b.completed -
                                       b.failed);
    cls["cancelled"] = static_cast<f64>(a.cancelled - b.cancelled);
    cls["queue_wait_vs"] = a.queue_wait_seconds - b.queue_wait_seconds;
    cls["service_vs"] = a.service_seconds - b.service_seconds;
    o[kClass[p]] = std::move(cls);
  }
  o["coalesced_batches"] =
      static_cast<f64>(after.coalesced_batches - before.coalesced_batches);
  o["max_queue_depth"] = static_cast<f64>(after.max_queue_depth);
  return o;
}

/// Where the optimizer state lives: host, NVMe (path 0) and PFS (path 1)
/// shares of the simulated bytes.
json::Object placement(const Engine::Distribution& d) {
  const f64 nvme = d.path_sim_bytes.size() > 0
                       ? static_cast<f64>(d.path_sim_bytes[0]) : 0;
  const f64 pfs = d.path_sim_bytes.size() > 1
                      ? static_cast<f64>(d.path_sim_bytes[1]) : 0;
  const f64 host = static_cast<f64>(d.host_sim_bytes);
  const f64 total = host + nvme + pfs;
  json::Object o;
  o["host_share"] = total > 0 ? host / total : 0;
  o["nvme_share"] = total > 0 ? nvme / total : 0;
  o["pfs_share"] = total > 0 ? pfs / total : 0;
  return o;
}

void add_distribution(Engine::Distribution& total,
                      const Engine::Distribution& d) {
  total.host_sim_bytes += d.host_sim_bytes;
  if (total.path_sim_bytes.size() < d.path_sim_bytes.size()) {
    total.path_sim_bytes.resize(d.path_sim_bytes.size(), 0);
  }
  for (std::size_t p = 0; p < d.path_sim_bytes.size(); ++p) {
    total.path_sim_bytes[p] += d.path_sim_bytes[p];
  }
}

/// The correctness oracle: the same model, layout, elem_scale and
/// iteration count on the host-resident cpu_only engine. Every engine and
/// executor must reach this exact optimizer state.
u64 oracle_checksum(TrainerConfig cfg, u64 iterations, Tracer& tracer) {
  Tracer::Scope span(tracer, "bench", "oracle");
  cfg.engine = EngineOptions::preset("cpu_only");
  cfg.storage = StorageConfig{};
  cfg.attach_pfs = false;
  cfg.time_scale = kOracleTimeScale;
  Trainer trainer(cfg);
  trainer.initialize();
  for (u64 i = 0; i < iterations; ++i) trainer.cluster().run_iteration(i);
  return cluster_state_checksum(trainer.cluster());
}

TrainerConfig config_40b(const EngineOptions& engine, bool pfs) {
  TrainerConfig cfg;
  cfg.model = paper_model("40B");
  cfg.testbed = TestbedSpec::testbed1();
  cfg.engine = engine;
  cfg.elem_scale = 32768;
  cfg.time_scale = 500;
  cfg.attach_pfs = pfs;
  return cfg;
}

TrainerConfig config_real_uring() {
  TrainerConfig cfg;
  cfg.model = ModelConfig{"custom", 16, 4096, 32};
  cfg.testbed = TestbedSpec::testbed1();
  cfg.engine = EngineOptions::mlp_offload();
  cfg.engine.multipath = false;
  cfg.engine.execution = "graph";
  cfg.elem_scale = 256;
  cfg.time_scale = 1;
  cfg.attach_pfs = false;
  cfg.host_cache_override = 2;
  cfg.storage.backend = "uring_file";
  cfg.storage.direct = false;
  return cfg;
}

/// The document fields both kinds of run share. `attempted` counts every
/// iteration run, warm-up included; any error fails them all (run.py).
void write_run(json::Object& out, Columns setup, Columns iters,
               json::Array rss, json::Object layers, u64 attempted,
               const std::vector<std::string>& errors) {
  json::Array messages;
  for (const auto& e : errors) messages.emplace_back(e);
  out["setup"] = to_object(std::move(setup));
  out["iterations"] = to_object(std::move(iters));
  out["peak_rss_mb"] = std::move(rss);
  out["layers"] = std::move(layers);
  out["attempted"] = static_cast<f64>(std::max<u64>(attempted, 1));
  out["errors"] = std::move(messages);
}

void run_single(const Options& opts, TrainerConfig cfg, u32 min_samples,
                Tracer& tracer, json::Object& out) {
  out["tail_base"] = static_cast<f64>(min_samples);
  out["tenant_tail_base"] = static_cast<f64>(min_samples);
  const bool real_storage = cfg.storage.backend != "sim";
  Columns setup;
  Columns iters;
  json::Array rss;  ///< peak RSS through the measured loop, MiB
  json::Object layers;
  std::vector<std::string> errors;
  u64 iterations_run = 0;
  {
    // Declared before the trainer so its files outlive it.
    std::unique_ptr<ScratchDir> root;
    if (real_storage) {
      root = std::make_unique<ScratchDir>(
          fs::path(opts.scratch) / ("uring-" + std::to_string(opts.seed)));
    }
    // Construct + initialize one trainer, timing both. The measured trainer
    // is the first one, so the run's peak RSS carries no memory the
    // allocator kept from discarded set-ups; the rest are timed afterwards.
    const auto set_up = [&](u32 k) {
      Tracer::Scope span(tracer, "bench", "setup", k);
      if (root) cfg.storage.root = root->path() / ("setup" + std::to_string(k));
      const f64 t0 = now_s();
      std::unique_ptr<Trainer> t;
      {
        Tracer::Scope c(tracer, "runtime", "Trainer::Trainer", k);
        t = std::make_unique<Trainer>(cfg);
      }
      const f64 t1 = now_s();
      {
        Tracer::Scope c(tracer, "runtime", "Trainer::initialize", k);
        t->initialize();
      }
      const f64 t2 = now_s();
      push(setup, "setup_s", t2 - t0);
      push(setup, "init_s", t2 - t1);
      return t;
    };
    std::unique_ptr<Trainer> trainer;
    try {
      trainer = set_up(0);
      ClusterSim& cluster = trainer->cluster();
      for (; iterations_run < kWarmup; ++iterations_run) {
        Tracer::Scope span(tracer, "runtime", "ClusterSim::run_iteration",
                           static_cast<i64>(iterations_run));
        cluster.run_iteration(iterations_run);
      }
      IoScheduler::Stats io_before;
      if (opts.trace) {
        Tracer::Scope span(tracer, "io", "IoScheduler::stats");
        io_before = cluster_io_stats(cluster);
      }
      const f64 start = now_s();
      u32 measured = 0;
      // A traced run records its first half as one batch span instead of a
      // span per call, so the two halves price the recorder (see Tracer).
      std::optional<Tracer::Scope> batch;
      if (opts.trace) {
        batch.emplace(tracer, "runtime", "ClusterSim::run_iteration batch");
      }
      // Measure for the requested time, and at least until the tail
      // percentile has ten samples beyond it; 3x the time is a hard cap.
      while ((now_s() - start < opts.seconds || measured < min_samples) &&
             now_s() - start < 3 * opts.seconds) {
        const bool traced = opts.trace && measured >= min_samples / 2;
        if (traced) batch.reset();
        tracer.set_enabled(traced);
        const f64 cpu0 = process_cpu_s();
        IterationReport r;
        {
          Tracer::Scope span(tracer, "runtime", "ClusterSim::run_iteration",
                             static_cast<i64>(iterations_run));
          r = cluster.run_iteration(iterations_run);
        }
        push(iters, "host_cpu_s", process_cpu_s() - cpu0);
        push(iters, "traced", traced ? 1 : 0);
        record_report(iters, r, 0, 0);
        ++iterations_run;
        ++measured;
      }
      batch.reset();
      tracer.set_enabled(opts.trace);
      rss.emplace_back(peak_rss_mb());
      if (opts.trace) {
        {
          Tracer::Scope span(tracer, "io", "IoScheduler::stats");
          layers["io"] = io_window(io_before, cluster_io_stats(cluster));
          layers["io"].as_object()["iterations"] = static_cast<f64>(measured);
        }
        Tracer::Scope span(tracer, "policy", "Trainer::distribution");
        layers["policy"] = placement(trainer->distribution());
      }
      if (real_storage) {
        const auto* tier =
            dynamic_cast<const UringFileTier*>(&cluster.node(0).vtier().path(0));
        if (tier == nullptr) {
          throw std::logic_error("real_uring: NVMe path is not a UringFileTier");
        }
        layers["io.uring_active"] = tier->using_uring() ? 1.0 : 0.0;
      }
      u64 checksum = 0;
      {
        Tracer::Scope span(tracer, "core", "Engine::state_checksum");
        checksum = cluster_state_checksum(cluster);
      }
      const auto discard = [&](std::unique_ptr<Trainer> t, u32 k) {
        t.reset();
        if (root) fs::remove_all(root->path() / ("setup" + std::to_string(k)));
      };
      discard(std::move(trainer), 0);
      const u64 expected = oracle_checksum(cfg, iterations_run, tracer);
      for (u32 k = 1; k < kSetupRepeats; ++k) discard(set_up(k), k);
      if (checksum != expected) {
        errors.push_back("state checksum " + std::to_string(checksum) +
                                 " != cpu_only oracle " +
                                 std::to_string(expected) + " after " +
                                 std::to_string(iterations_run) +
                                 " iterations");
      }
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
  }

  if (opts.trace) {
    ProbeSizes sizes;
    sizes.subgroup_elems = cfg.subgroup_params / cfg.elem_scale;
    sizes.time_scale = cfg.time_scale;
    sizes.storage = real_storage;
    try {
      run_probes(opts, sizes, tracer, layers);
    } catch (const std::exception& e) {
      errors.push_back(std::string("probe: ") + e.what());
    }
  }
  write_run(out, std::move(setup), std::move(iters), std::move(rss),
            std::move(layers), iterations_run, errors);
}

JobManagerConfig shared_jobs(u64 seed) {
  // The seed picks which tenant carries weight 3.
  const u32 heavy = static_cast<u32>(seed % kSharedJobs);
  JobManagerConfig cfg;
  for (u32 i = 0; i < kSharedJobs; ++i) {
    JobSpec spec;
    spec.name = "job" + std::to_string(i + 1);
    spec.weight = i == heavy ? 3 : 1;
    spec.config.model = ModelConfig{"tiny", 16, 4096, 32};
    spec.config.testbed = TestbedSpec::testbed1();
    spec.config.elem_scale = 65536;
    spec.config.time_scale = 500;
    spec.config.host_cache_override = 2;
    spec.iterations = kSharedIterations + kWarmup;
    spec.warmup = kWarmup;
    cfg.jobs.push_back(std::move(spec));
  }
  return cfg;
}

void run_shared(const Options& opts, u32 min_rounds, Tracer& tracer,
                json::Object& out) {
  out["tail_base"] = static_cast<f64>(min_rounds * kSharedJobs * kSharedIterations);
  out["tenant_tail_base"] = static_cast<f64>(min_rounds * kSharedIterations);
  Columns setup;
  Columns iters;
  Columns rounds;
  json::Array rss;  ///< peak RSS through the first round, MiB
  json::Object layers;
  std::vector<std::string> errors;
  u64 attempted = 0;
  IoScheduler::Stats io_total;
  Engine::Distribution dist;
  f64 share_min = std::numeric_limits<f64>::infinity();
  const JobManagerConfig jobs = shared_jobs(opts.seed);
  u32 round = 0;
  try {
    std::vector<u64> checksums;
    const f64 start = now_s();
    while ((now_s() - start < opts.seconds || round < min_rounds) &&
           now_s() - start < 3 * opts.seconds) {
      // A traced run records its even rounds as one batch span each
      // instead of a span per call (see Tracer).
      const bool traced = opts.trace && round % 2 == 1;
      tracer.set_enabled(opts.trace);
      std::optional<Tracer::Scope> batch;
      if (opts.trace && !traced) {
        batch.emplace(tracer, "runtime", "JobManager round batch", round);
      }
      tracer.set_enabled(traced);
      Tracer::Scope span(tracer, "bench", "round", round);
      // Set-up is admission plus building the jobs' trainers; the jobs
      // initialize inside JobManager::run.
      std::unique_ptr<JobManager> manager;
      for (u32 k = 0; k < kSetupRepeats; ++k) {
        manager.reset();
        const f64 t0 = now_s();
        {
          Tracer::Scope c(tracer, "runtime", "JobManager::JobManager", round);
          manager = std::make_unique<JobManager>(jobs);
        }
        push(setup, "setup_s", now_s() - t0);
      }
      const f64 cpu0 = process_cpu_s();
      std::vector<JobResult> results;
      {
        Tracer::Scope c(tracer, "runtime", "JobManager::run", round);
        results = manager->run();
      }
      const f64 cpu = process_cpu_s() - cpu0;
      // Later rounds start on memory the allocator kept from earlier
      // ones; the first round is one JobManager's whole footprint.
      if (round == 0) rss.emplace_back(peak_rss_mb());
      u64 measured = 0;
      for (const JobResult& r : results) {
        for (const auto& report : r.reports) {
          record_report(iters, report, r.tenant, round);
        }
        measured += r.reports.size();
        checksums.push_back(r.state_checksum);
      }
      push(rounds, "host_cpu_s", cpu / static_cast<f64>(measured));
      push(rounds, "traced", traced ? 1 : 0);
      attempted += static_cast<u64>(kSharedJobs) * jobs.jobs[0].iterations;
      if (opts.trace) {
        Tracer::Scope c(tracer, "io", "IoScheduler::tenant_stats", round);
        IoScheduler& io = manager->substrate().io();
        io_total += io.stats();
        // Serviced-byte share over entitlement min(w / sum w, 1 / N).
        u64 weight_sum = 0;
        u64 total_bytes = 0;
        std::vector<u64> bytes;
        for (const JobResult& r : results) {
          weight_sum += r.weight;
          u64 b = 0;
          for (const auto& pri : io.tenant_stats(r.tenant).priority) b += pri.sim_bytes;
          bytes.push_back(b);
          total_bytes += b;
        }
        for (std::size_t i = 0; i < results.size() && total_bytes > 0; ++i) {
          const f64 share = static_cast<f64>(bytes[i]) / static_cast<f64>(total_bytes);
          const f64 entitled = std::min(
              static_cast<f64>(results[i].weight) / static_cast<f64>(weight_sum),
              1.0 / static_cast<f64>(results.size()));
          share_min = std::min(share_min, share / entitled);
        }
      }
      if (opts.trace && round == 0) {
        Tracer::Scope c(tracer, "policy", "Trainer::distribution");
        for (std::size_t i = 0; i < manager->job_count(); ++i) {
          add_distribution(dist, manager->job(i).distribution());
        }
      }
      ++round;
    }
    tracer.set_enabled(opts.trace);
    const u64 expected =
        oracle_checksum(jobs.jobs[0].config, jobs.jobs[0].iterations, tracer);
    for (const u64 c : checksums) {
      if (c != expected) {
        errors.push_back("job state checksum " + std::to_string(c) +
                                 " != cpu_only oracle " + std::to_string(expected));
        break;
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }

  if (opts.trace) {
    // Whole rounds: each fresh scheduler also saw initialization and the
    // warm-up iterations.
    layers["io"] = io_window(IoScheduler::Stats{}, io_total);
    layers["io"].as_object()["iterations"] = static_cast<f64>(attempted);
    if (std::isfinite(share_min)) layers["io.tenant_share_min"] = share_min;
    layers["policy"] = placement(dist);
    const TrainerConfig& cfg = jobs.jobs[0].config;
    ProbeSizes sizes;
    sizes.subgroup_elems = cfg.subgroup_params / cfg.elem_scale;
    sizes.time_scale = cfg.time_scale;
    try {
      run_probes(opts, sizes, tracer, layers);
    } catch (const std::exception& e) {
      errors.push_back(std::string("probe: ") + e.what());
    }
  }
  out["rounds"] = to_object(std::move(rounds));
  write_run(out, std::move(setup), std::move(iters), std::move(rss),
            std::move(layers), attempted, errors);
}

}  // namespace

void run_workload(const Options& opts, Tracer& tracer, json::Object& out) {
  Tracer::Scope span(tracer, "bench", "workload");
  // Minimum samples: 100 leaves ten beyond p90 (~12 s at 0.12 s per
  // iteration); the slower single jobs take 40, ten beyond p75. Two shared
  // rounds give 480 pooled iterations (p95) and 120 per tenant (p90).
  if (opts.workload == "mlp_40b") {
    run_single(opts, config_40b(EngineOptions::mlp_offload(), true), 100,
               tracer, out);
  } else if (opts.workload == "ds_40b") {
    run_single(opts, config_40b(EngineOptions::deepspeed_zero3(), false), 40,
               tracer, out);
  } else if (opts.workload == "real_uring") {
    run_single(opts, config_real_uring(), 40, tracer, out);
  } else if (opts.workload == "shared_4jobs") {
    run_shared(opts, 2, tracer, out);
  } else {
    throw std::invalid_argument("unknown workload '" + opts.workload +
                                "' (known: mlp_40b ds_40b real_uring "
                                "shared_4jobs)");
  }
}

}  // namespace mlpo::perfbench
