// Per-layer probes of the traced run: each times one layer's public API in
// real time, outside the workload's measured loop, sized from the workload
// (one subgroup's real elements, the workload's SimClock scale).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph_executor.hpp"
#include "io/io_scheduler.hpp"
#include "io/uring_backend.hpp"
#include "perfbench.hpp"
#include "tiers/memory_tier.hpp"
#include "train/adam.hpp"
#include "train/mixed_precision.hpp"
#include "util/aligned_buffer.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace mlpo::perfbench {
namespace {

namespace fs = std::filesystem;

/// Wall time each repeated probe accumulates before it reports.
constexpr f64 kProbeSeconds = 0.25;
/// Threads of the node CPU pool the update kernels run on (NodeSim sizes
/// it min(cpu_cores, 8); Testbed-1 has 96 cores).
constexpr std::size_t kKernelThreads = 8;

u32 submitters_max() { return std::max(1u, std::thread::hardware_concurrency()); }

f64 median(std::vector<f64> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of an unsorted sample, q in [0, 1].
f64 percentile(std::vector<f64> v, f64 q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<f64>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Repeat `body` until kProbeSeconds of wall time (and at least 3 calls);
/// returns seconds per call.
template <typename F>
f64 seconds_per_call(F&& body) {
  u64 calls = 0;
  const f64 start = now_s();
  f64 elapsed = 0;
  while (elapsed < kProbeSeconds || calls < 3) {
    body();
    ++calls;
    elapsed = now_s() - start;
  }
  return elapsed / static_cast<f64>(calls);
}

void probe_train(const ProbeSizes& sizes, std::mt19937_64& rng,
                 Tracer& tracer, json::Object& layers) {
  const std::size_t n = std::max<u64>(sizes.subgroup_elems, 1);
  std::uniform_real_distribution<f32> dist(-1.0f, 1.0f);
  std::vector<f32> params(n), momentum(n, 0), variance(n, 0), grads(n);
  for (auto& p : params) p = dist(rng);
  for (auto& g : grads) g = dist(rng) * 1e-3f;
  ThreadPool pool(kKernelThreads);
  const AdamConfig adam;
  u32 step = 0;
  {
    Tracer::Scope span(tracer, "train", "adam_update");
    // Bytes streamed per step: params, momentum, variance and grads read,
    // the first three written back.
    const f64 s = seconds_per_call([&] {
      adam_update(adam, params, momentum, variance, grads, ++step, &pool);
    });
    layers["train.adam_gbps"] = static_cast<f64>(n) * 7 * sizeof(f32) / s / 1e9;
  }
  std::vector<u16> half(n);
  for (auto& h : half) h = static_cast<u16>(rng() & 0x3bff);  // finite fp16
  {
    Tracer::Scope span(tracer, "train", "upscale_fp16_to_fp32");
    // Bytes streamed per call: fp16 in, fp32 out.
    const f64 s = seconds_per_call([&] { upscale_fp16_to_fp32(half, grads, &pool); });
    layers["train.fp16_upscale_gbps"] =
        static_cast<f64>(n) * (sizeof(u16) + sizeof(f32)) / s / 1e9;
  }
}

void probe_graph(Tracer& tracer, json::Object& layers) {
  Tracer::Scope span(tracer, "graph", "GraphExecutor::run");
  // 64 layers of 64 no-op nodes; node j feeds nodes j and j+1 of the next
  // layer, so the executor both fans out and joins.
  constexpr u32 kWidth = 64;
  constexpr u32 kDepth = 64;
  TaskGraph graph;
  for (u32 l = 0; l < kDepth; ++l) {
    for (u32 j = 0; j < kWidth; ++j) {
      graph.add_node(NodeKind::kCompute, "noop", j, [](TaskContext&) {});
      if (l > 0) {
        const u32 id = l * kWidth + j;
        graph.add_edge(id - kWidth, id);
        if (j > 0) graph.add_edge(id - kWidth - 1, id);
      }
    }
  }
  WorkStealingPool pool(EngineOptions{}.resolved_graph_workers());
  GraphExecutor executor(pool);
  std::vector<f64> ns;
  const f64 start = now_s();
  while (now_s() - start < kProbeSeconds || ns.size() < 5) {
    const f64 t0 = now_s();
    executor.run(graph);
    ns.push_back((now_s() - t0) * 1e9 / (kWidth * kDepth));
  }
  layers["graph.node_overhead_ns"] = median(ns);
}

void probe_simclock(f64 time_scale, Tracer& tracer, json::Object& layers) {
  Tracer::Scope span(tracer, "util", "SimClock::sleep_for");
  // Each sleeper asks for 200 us of real time, expressed in virtual time
  // at the workload's scale; lateness is wake time minus deadline.
  constexpr f64 kRealSleep = 200e-6;
  constexpr u32 kSleeps = 200;
  const SimClock clock(time_scale);
  const u32 threads = submitters_max();
  std::vector<std::vector<f64>> late(threads);
  std::vector<std::thread> sleepers;
  for (u32 t = 0; t < threads; ++t) {
    sleepers.emplace_back([&, t] {
      late[t].reserve(kSleeps);
      for (u32 i = 0; i < kSleeps; ++i) {
        const f64 deadline = now_s() + kRealSleep;
        clock.sleep_for(kRealSleep * time_scale);
        late[t].push_back((now_s() - deadline) * 1e6);
      }
    });
  }
  for (auto& s : sleepers) s.join();
  std::vector<f64> all;
  for (auto& v : late) all.insert(all.end(), v.begin(), v.end());
  layers["util.simclock_late_us_p50"] = percentile(all, 0.50);
  layers["util.simclock_late_us_p99"] = percentile(all, 0.99);
}

void probe_pool(const ProbeSizes& sizes, Tracer& tracer, json::Object& layers) {
  Tracer::Scope span(tracer, "util", "BufferPool::acquire");
  // One subgroup's serialized state (params + two moments, fp32).
  const std::size_t lease = std::max<u64>(sizes.subgroup_elems, 1) * 3 * sizeof(f32);
  BufferPool::Options o;
  o.slab_bytes = 4 * lease;
  BufferPool pool(o);
  constexpr u32 kBatch = 1000;
  const f64 s = seconds_per_call([&] {
    for (u32 i = 0; i < kBatch; ++i) {
      BufferPool::Lease l = pool.acquire(lease);
      l.release();
    }
  });
  layers["util.pool_acquire_release_ns"] = s / kBatch * 1e9;
}

/// Median submit->settle latency of small external writes against a
/// zero-cost MemoryTier, with `threads` concurrent closed-loop submitters.
f64 submit_settle_ns(u32 threads, std::mt19937_64& rng) {
  const SimClock clock(1.0);
  MemoryTier mem("probe");
  IoScheduler io(clock, IoScheduler::Config{});
  std::vector<u8> payload(4096);
  for (auto& b : payload) b = static_cast<u8>(rng());
  constexpr u32 kRequests = 2000;
  std::vector<std::vector<f64>> lat(threads);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> submitters;
  for (u32 t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      try {
        lat[t].reserve(kRequests);
        const std::string key = "t" + std::to_string(t);
        for (u32 i = 0; i < kRequests; ++i) {
          IoRequest req = IoRequest::external_op(
              IoOp::kWrite, &mem, key, 0, IoPriority::kDemandPrefetch);
          req.src = payload;
          const f64 t0 = now_s();
          io.submit(std::move(req)).get();
          lat[t].push_back((now_s() - t0) * 1e9);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<f64> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return median(std::move(all));
}

void probe_io(std::mt19937_64& rng, Tracer& tracer, json::Object& layers) {
  Tracer::Scope span(tracer, "io", "IoScheduler::submit");
  layers["io.submit_settle_ns_1"] = submit_settle_ns(1, rng);
  layers["io.submit_settle_ns_n"] = submit_settle_ns(submitters_max(), rng);
  layers["io.submitters_n"] = static_cast<f64>(submitters_max());
}

/// One serialized subgroup written then read back through a UringFileTier,
/// on io_uring or forced onto the pread/pwrite pool. The files sit in the
/// run's scratch directory, so these are page-cache figures, not a
/// device's.
void probe_storage(const Options& opts, const ProbeSizes& sizes,
                   std::mt19937_64& rng, Tracer& tracer, json::Object& layers) {
  std::vector<u8> data(sizes.subgroup_elems * 3 * sizeof(f32));
  for (auto& b : data) b = static_cast<u8>(rng());
  std::vector<u8> back(data.size());
  for (const bool fallback : {false, true}) {
    const char* mech = fallback ? "pread" : "uring";
    Tracer::Scope span(tracer, "tiers", fallback ? "UringFileTier(pread)"
                                                 : "UringFileTier(uring)");
    const fs::path root = fs::path(opts.scratch) / ("probe-" + std::string(mech));
    fs::remove_all(root);
    {
      UringFileTier::Options o;
      o.force_fallback = fallback;
      UringFileTier tier(mech, root, o);
      // When the kernel refused io_uring, report nothing under the uring
      // name rather than pool the fallback's figures into it.
      if (fallback || tier.using_uring()) {
        const f64 w = seconds_per_call([&] { tier.write("subgroup", data); });
        const f64 r = seconds_per_call([&] { tier.read("subgroup", back); });
        if (back != data) throw std::runtime_error("storage probe read back wrong bytes");
        const f64 gb = static_cast<f64>(data.size()) / 1e9;
        layers[std::string("io.") + mech + "_write_gbps"] = gb / w;
        layers[std::string("io.") + mech + "_read_gbps"] = gb / r;
      }
    }
    fs::remove_all(root);
  }
}

}  // namespace

void run_probes(const Options& opts, const ProbeSizes& sizes, Tracer& tracer,
                json::Object& layers) {
  Tracer::Scope span(tracer, "bench", "probes");
  std::mt19937_64 rng(opts.seed);
  probe_train(sizes, rng, tracer, layers);
  probe_graph(tracer, layers);
  probe_simclock(sizes.time_scale, tracer, layers);
  probe_pool(sizes, tracer, layers);
  probe_io(rng, tracer, layers);
  if (sizes.storage) probe_storage(opts, sizes, rng, tracer, layers);
}

}  // namespace mlpo::perfbench
