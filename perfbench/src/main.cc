// The end-to-end benchmark: one workload per process, selected with
// --workload, inputs made from --seed, measured for --seconds. Every
// workload trains a model with dw::engine::Engine and then serves it
// with dw::serve::ServingEngine; the last line printed is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 records the
// benchmark's spans around every call into the program and reports the
// per-layer metrics instead.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "engine/engine.h"
#include "host.h"
#include "layers.h"
#include "numa/memory_model.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Share of the run each timed phase gets.
constexpr double kTrainShare = 0.35;
constexpr double kClosedShare = 0.25;
constexpr double kOpenShare = 0.25;
/// Serving set-ups per run (setup_s is the median).
constexpr int kServeSetups = 5;
/// Requests whose spans a traced run records: every kTraceEvery-th.
constexpr uint64_t kTraceEvery = 8;
/// Open-loop latency is taken per window of due times of this length.
constexpr int64_t kSliceNs = 100000000;

void Usage() {
  std::fprintf(stderr,
               "usage: dwbench --workload sgd_sparse_carried|scd_dense_refresh"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       (scd_dense_permachine: the excluded PerMachine SCD repro)\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

/// One request in flight.
struct InFlight {
  std::future<double> fut;
  uint32_t item = 0;
  uint64_t j_lo = 0;     ///< refreshes complete when it was sent
  int64_t due_ns = 0;    ///< send time (open loop: scheduled send time)
  uint64_t index = 0;    ///< open loop: its place in the send schedule
  uint32_t span = Tracer::kNoParent;
};

/// The generator side of the serving phases (runs on the main thread).
class Generator {
 public:
  Generator(Pipeline* p, dw::serve::ServingEngine* s,
            const std::atomic<uint64_t>* begun,
            const std::atomic<uint64_t>* done, Result* r)
      : p_(p), s_(s), begun_(begun), done_(done), r_(r) {}

  /// Closed loop in rounds for `seconds`: each round sends a whole
  /// window of requests, then waits for every one of them, as a caller
  /// scoring a bulk job does. Whole rounds keep the batches the workers
  /// form the same however the host schedules the threads (a loop that
  /// refills one request at a time hands the workers batches, and
  /// wake-ups, that follow which thread ran faster). For every round
  /// after a warm-up tenth, appends its rows per second, the CPU time the
  /// serving side spent per row (the process less the `writer` thread:
  /// workers and generator) and the writer's CPU time per row. The
  /// writer refreshes on a fixed cadence, so its time per row follows
  /// the throughput; it is reported on its own. The generator blocks on
  /// the oldest request, so waiting costs no CPU time.
  void ClosedLoop(double seconds, Tracer* t, pthread_t writer,
                  std::vector<double>* rows_per_s,
                  std::vector<double>* cpu_us_per_row,
                  std::vector<double>* writer_us_per_row) {
    const int64_t start = NowNs();
    const int64_t warm = start + static_cast<int64_t>(seconds * 0.1e9);
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (int64_t t0 = start; t0 < end; t0 = NowNs()) {
      const int64_t writer0 = ThreadCpuNs(writer);
      const int64_t cpu0 = ProcessCpuNs();
      while (q_.size() < p_->closed_window()) Send(NowNs(), 0, t);
      const double rows = static_cast<double>(q_.size());
      while (!q_.empty()) Observe(t);
      const int64_t writer1 = ThreadCpuNs(writer);
      const int64_t cpu1 = ProcessCpuNs();
      if (t0 < warm || rows == 0) continue;
      rows_per_s->push_back(rows / ((NowNs() - t0) * 1e-9));
      cpu_us_per_row->push_back(((cpu1 - cpu0) - (writer1 - writer0)) * 1e-3 / rows);
      writer_us_per_row->push_back((writer1 - writer0) * 1e-3 / rows);
    }
  }

  /// Open loop at a fixed absolute rate for `seconds`. For every 100 ms
  /// window of due times after a warm-up twentieth, appends the p50 and
  /// p99 latency (from the due time) of its requests and the serving CPU
  /// time per request sent in it; appends every latency and each send's
  /// lateness. Serving CPU time is the process's less the `writer`
  /// thread's and less the generator's, plus the generator's own CPU time
  /// inside the program's submit calls: the generator polls, so the rest
  /// of its time is spinning.
  void OpenLoop(double seconds, double rate, pthread_t writer,
                std::vector<double>* p50, std::vector<double>* p99,
                std::vector<double>* all_latency_ms,
                std::vector<double>* lateness_ms,
                std::vector<double>* cpu_us_per_row, Tracer* t) {
    const int64_t start = NowNs() + 1000000;
    OpenLoopSchedule sched(start, rate);
    const uint64_t n = static_cast<uint64_t>(seconds * rate);
    const uint64_t warm = n / 20;
    const size_t windows = static_cast<size_t>((sched.DueNs(n) - start) / kSliceNs) + 1;
    std::vector<std::vector<double>> latency(windows);
    const uint64_t per_window = static_cast<uint64_t>(rate * kSliceNs * 1e-9);
    int64_t cpu0 = 0, writer0 = 0, gen0 = 0;
    uint64_t i = 0;
    // The generator polls: it sends each request when due and observes
    // the oldest one as soon as it completes, on a CPU of its own.
    while (i < n || !q_.empty()) {
      const int64_t now = NowNs();
      if (i < n && now >= sched.DueNs(i)) {
        if (i >= warm && (i - warm) % per_window == 0) {
          const int64_t writer1 = ThreadCpuNs(writer);
          const int64_t gen1 = ThreadCpuNs();
          const int64_t cpu1 = ProcessCpuNs();
          if (i > warm) {
            cpu_us_per_row->push_back(((cpu1 - cpu0) - (writer1 - writer0) -
                                       (gen1 - gen0) + submit_cpu_ns_) *
                                      1e-3 / per_window);
          }
          cpu0 = cpu1;
          writer0 = writer1;
          gen0 = gen1;
          submit_cpu_ns_ = 0;
          count_submit_cpu_ = true;
        }
        sched.RecordSend(i, now);
        Send(sched.DueNs(i), i, t);
        ++i;
        continue;
      }
      if (!Ready()) continue;
      const uint64_t sent = q_.front().index;
      const int64_t obs = Observe(t);
      if (sent >= warm) {
        latency[(sched.DueNs(sent) - start) / kSliceNs].push_back(
            sched.LatencyMs(sent, obs));
      }
    }
    for (size_t w = 0; w < windows; ++w) {
      if (latency[w].size() < 100) continue;  // warm-up or a partial window
      all_latency_ms->insert(all_latency_ms->end(), latency[w].begin(), latency[w].end());
      p50->push_back(Median(latency[w]));
      p99->push_back(TailOrMedian(latency[w], 99.0).value);
    }
    const auto& late = sched.lateness_ms();
    lateness_ms->insert(lateness_ms->end(), late.begin() + warm, late.end());
    count_submit_cpu_ = false;
  }

  uint64_t mismatched() const { return mismatched_; }
  uint64_t sent() const { return seq_; }

 private:
  void Send(int64_t due, uint64_t index, Tracer* t) {
    const uint64_t seq = seq_++;
    const uint32_t item = p_->Item(seq);
    p_->Prepare(item);
    InFlight f;
    f.item = item;
    f.due_ns = due;
    f.index = index;
    f.j_lo = done_->load(std::memory_order_acquire);
    const bool traced = t->enabled() && seq % kTraceEvery == 0;
    if (traced) f.span = t->Record("serve.request", due, due, Tracer::kNoParent, seq + 1);
    const int64_t cpu0 = count_submit_cpu_ ? ThreadCpuNs() : 0;
    const int64_t c0 = NowNs();
    auto st = p_->Submit(s_, item);
    const int64_t c1 = NowNs();
    if (count_submit_cpu_) submit_cpu_ns_ += ThreadCpuNs() - cpu0;
    if (traced) t->Record("serve.call", c0, c1, f.span, seq + 1);
    r_->Attempt();
    if (!st.ok()) {
      r_->Fail();
      if (failures_printed_++ < 5) {
        std::printf("request failed: %s\n", st.status().ToString().c_str());
      }
      if (f.span != Tracer::kNoParent) t->CloseAt(f.span, c1);
      return;
    }
    f.fut = std::move(st.value());
    q_.push_back(std::move(f));
  }

  /// True when the oldest request in flight has completed (never blocks).
  bool Ready() const {
    return !q_.empty() && q_.front().fut.wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready;
  }

  /// Waits for the oldest request, checks its score; returns when it
  /// was observed.
  int64_t Observe(Tracer* t) {
    InFlight f = std::move(q_.front());
    q_.pop_front();
    double score = 0.0;
    bool ok = true;
    try {
      score = f.fut.get();
    } catch (const std::exception& e) {
      ok = false;
      r_->Fail();
      if (failures_printed_++ < 5) std::printf("request failed: %s\n", e.what());
    }
    const int64_t obs = NowNs();
    if (f.span != Tracer::kNoParent) t->CloseAt(f.span, obs);
    if (ok) {
      const uint64_t j_hi = begun_->load(std::memory_order_acquire);
      if (!p_->Matches(f.item, score, f.j_lo, j_hi)) {
        if (mismatched_++ < 5) {
          std::printf("score mismatch: item %u score %.17g refreshes [%llu, %llu]\n",
                      f.item, score, static_cast<unsigned long long>(f.j_lo),
                      static_cast<unsigned long long>(j_hi));
        }
      }
    }
    return obs;
  }

  Pipeline* p_;
  dw::serve::ServingEngine* s_;
  const std::atomic<uint64_t>* begun_;
  const std::atomic<uint64_t>* done_;
  Result* r_;
  std::deque<InFlight> q_;
  uint64_t seq_ = 0;
  uint64_t mismatched_ = 0;
  uint64_t failures_printed_ = 0;
  bool count_submit_cpu_ = false;  ///< open loop: time the submit calls
  int64_t submit_cpu_ns_ = 0;      ///< generator CPU inside them, this window
};

double SecondsSince(int64_t t0) { return (NowNs() - t0) * 1e-9; }

int Run(const Args& args, Pipeline* p) {
  Result res;
  Tracer tracer(args.trace);
  const dw::numa::Topology topo = dw::numa::Local2();
  const int nproc = UsableCpus();
  const int workers_per_node =
      std::clamp(nproc / topo.num_nodes, 1, topo.cores_per_node);
  const int serve_workers = topo.num_nodes;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host: nproc=%d real_numa_nodes=%d kernel_isa=%s\n", nproc,
              RealNumaNodes(), KernelIsaLevel().c_str());
  std::printf("# simulated topology: %s, %d nodes x %d cores; serving %d "
              "workers (one per node) + 1 generator + 1 writer; placement "
              "tuner off\n",
              topo.name.c_str(), topo.num_nodes, topo.cores_per_node,
              serve_workers);

  int64_t t0 = NowNs();
  p->MakeInputs(args.seed);
  std::printf("inputs: %s (made in %.2f s, not timed; peak RSS so far %.1f MB)\n",
              p->DescribeInputs().c_str(), SecondsSince(t0), PeakRssMb());

  // ---- training: rounds of Init + a fixed epoch budget -------------------
  std::vector<double> init_s, epoch_s, sim_s, losses;
  const CpuTicks train_ticks = ReadCpuTicks();
  std::vector<double> trained;
  size_t max_worker_items = 0;  // longest per-worker work list of the plan
  int replicas = 1;
  const dw::engine::EngineOptions eopts = p->TrainOptions(workers_per_node);
  const int64_t train_end = NowNs() + static_cast<int64_t>(args.seconds * kTrainShare * 1e9);
  do {
    dw::engine::ModelExport exported;
    double engine_loss = 0.0;
    {
      dw::engine::Engine engine(&p->train(), &p->spec(), eopts);
      dw::Status st;
      {
        ScopedSpan span(&tracer, "engine.init");
        t0 = NowNs();
        st = engine.Init();
        init_s.push_back(SecondsSince(t0));
      }
      res.Attempt();
      if (!st.ok()) {
        res.Fail();
        res.Check(false, "train: engine init", st.ToString());
        break;
      }
      replicas = engine.plan().num_replicas;
      for (const auto& w : engine.plan().workers) {
        max_worker_items = std::max(max_worker_items, w.work.size());
      }
      for (int e = 0; e < p->epoch_budget(); ++e) {
        ScopedSpan span(&tracer, "engine.epoch");
        const dw::engine::EpochRecord rec = engine.RunEpochNoEval();
        epoch_s.push_back(rec.wall_sec);
        sim_s.push_back(rec.sim_sec);
        res.Attempt();
      }
      {
        ScopedSpan span(&tracer, "engine.evaluate_loss");
        engine_loss = engine.EvaluateLoss();
      }
      ScopedSpan span(&tracer, "engine.export");
      exported = engine.Export();
    }
    double own = 0.0;
    {
      ScopedSpan span(&tracer, "bench.objective");
      own = p->Objective(exported.weights.data());
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "engine %.12g vs benchmark %.12g",
                  engine_loss, own);
    res.Check(std::fabs(engine_loss - own) <= 1e-9 * std::max(1.0, std::fabs(own)),
              "train: engine loss matches the benchmark's objective of the "
              "exported weights",
              buf);
    p->CheckModel(exported.weights, own, &res);
    losses.push_back(own);
    trained = std::move(exported.weights);
  } while (NowNs() < train_end);
  if (trained.empty()) {
    res.PrintChecks();
    std::printf("%s\n", res.Json().c_str());
    return 1;
  }
  const double epoch_med = Median(epoch_s);
  const double sim_med = Median(sim_s);
  std::printf("train: %d workers per node; %zu rounds x %d epochs; epoch measured %.5f s (median) | "
              "modeled %.6f s (measured/modeled %.1fx); loss %.6f; host "
              "steal %.1f%%\n",
              eopts.workers_per_node, losses.size(), p->epoch_budget(),
              epoch_med, sim_med,
              epoch_med / sim_med, Median(losses),
              100 * StealShare(train_ticks, ReadCpuTicks()));

  // ---- serving: set up several times, keep the last one -------------------
  p->PrepareServing(trained);
  dw::serve::ServingOptions sopts;
  sopts.topology = topo;
  sopts.num_threads = serve_workers;
  std::vector<double> serve_setup_s;
  std::unique_ptr<dw::serve::ServingEngine> server;
  for (int k = 0; k < kServeSetups; ++k) {
    server.reset();
    server = std::make_unique<dw::serve::ServingEngine>(sopts);
    ScopedSpan span(&tracer, "serve.setup");
    t0 = NowNs();
    dw::Status st = p->SetUp(server.get());
    if (st.ok()) st = server->Start();
    serve_setup_s.push_back(SecondsSince(t0));
    res.Attempt();
    if (!st.ok()) {
      res.Fail();
      res.Check(false, "serve: set-up", st.ToString());
      res.PrintChecks();
      std::printf("%s\n", res.Json().c_str());
      return 1;
    }
    if (k + 1 < kServeSetups) server->Stop();
  }

  // ---- serving phases, with the writer refreshing throughout -------------
  std::atomic<uint64_t> begun{0}, done{0};
  std::atomic<bool> stop_writer{false};
  Tracer writer_tracer(args.trace);
  std::vector<RefreshTiming> refreshes;
  // The serving workers pin themselves to the physical CPUs the topology
  // maps their virtual cores to; the generator and the writer take the
  // next free CPUs, so no wake-up lands them on a worker's CPU.
  std::vector<int> free_cpus;
  {
    std::vector<bool> used(nproc, false);
    for (int w = 0; w < serve_workers; ++w) {
      const int core = (w % topo.num_nodes) * topo.cores_per_node + w / topo.num_nodes;
      used[topo.PhysicalCpuOfCore(core, nproc) % nproc] = true;
    }
    for (int c = 0; c < nproc; ++c) {
      if (!used[c]) free_cpus.push_back(c);
    }
  }
  std::thread writer([&] {
    if (free_cpus.size() >= 2) PinThisThread(free_cpus[1]);
    const int64_t start = NowNs();
    const int64_t period = static_cast<int64_t>(p->refresh_period_s() * 1e9);
    for (uint64_t r = 0;; ++r) {
      const int64_t due = start + static_cast<int64_t>(r) * period;
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<int64_t>(0, due - NowNs())));
      if (stop_writer.load(std::memory_order_acquire)) return;
      begun.store(r + 1, std::memory_order_release);
      refreshes.push_back(p->Refresh(server.get(), r, &writer_tracer));
      done.store(r + 1, std::memory_order_release);
    }
  });

  if (!free_cpus.empty()) PinThisThread(free_cpus[0]);
  Generator gen(p, server.get(), &begun, &done, &res);
  const double closed_s = args.seconds * kClosedShare;
  std::vector<double> rounds, traced_rounds, cpu_per_row, traced_cpu_per_row,
      writer_per_row, traced_writer_per_row;
  const CpuTicks closed_ticks = ReadCpuTicks();
  if (args.trace) {
    // Same closed loop twice, spans off then on: the tracing overhead.
    Tracer off(false);
    gen.ClosedLoop(closed_s / 2, &off, writer.native_handle(), &rounds,
                   &cpu_per_row, &writer_per_row);
    gen.ClosedLoop(closed_s / 2, &tracer, writer.native_handle(),
                   &traced_rounds, &traced_cpu_per_row, &traced_writer_per_row);
  } else {
    gen.ClosedLoop(closed_s, &tracer, writer.native_handle(), &rounds,
                   &cpu_per_row, &writer_per_row);
  }
  const double closed_steal = StealShare(closed_ticks, ReadCpuTicks());
  std::vector<double> window_p50, window_p99, latency_ms, lateness_ms,
      open_cpu_per_row;
  const dw::serve::ServingStats closed_stats = server->Stats();
  const CpuTicks open_ticks = ReadCpuTicks();
  gen.OpenLoop(args.seconds * kOpenShare, p->open_rate_per_s(),
               writer.native_handle(), &window_p50, &window_p99, &latency_ms,
               &lateness_ms, &open_cpu_per_row, &tracer);
  const double open_steal = StealShare(open_ticks, ReadCpuTicks());
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  tracer.Merge(writer_tracer);
  server->Stop();
  res.Attempt(refreshes.size());

  const dw::serve::ServingStats stats = server->Stats();
  const dw::numa::MemoryModel model(topo);
  const double modeled_s = model.SimulateEpoch(server->SimInput()).total_sec;
  const double modeled_rows_per_s = modeled_s > 0 ? stats.requests / modeled_s : 0.0;

  char buf[200];
  std::snprintf(buf, sizeof(buf), "%llu of %llu requests",
                static_cast<unsigned long long>(gen.mismatched()),
                static_cast<unsigned long long>(gen.sent()));
  res.Check(gen.mismatched() == 0,
            "serve: every score matches the benchmark's own score under a "
            "live (features, model) version pair",
            std::string(buf) + " mismatched");
  res.Check(refreshes.size() >= 2, "serve: the writer refreshed during serving",
            std::to_string(refreshes.size()) + " refreshes");

  std::vector<double> refresh_cpu_ms, refresh_wall_ms, store_cpu_ms,
      model_cpu_ms, delta_bytes;
  for (const RefreshTiming& rt : refreshes) {
    refresh_cpu_ms.push_back(rt.cpu_ms);
    refresh_wall_ms.push_back(rt.wall_ms);
    store_cpu_ms.push_back(rt.store_cpu_ms);
    model_cpu_ms.push_back(rt.model_cpu_ms);
    delta_bytes.push_back(rt.delta_bytes);
  }
  const double rows_per_s = Median(rounds);
  const double p50_ms = Median(window_p50);
  const TailSummary whole_p99 = TailOrMedian(latency_ms, 99.0);
  const TailSummary late = TailOrMedian(lateness_ms, 99.0);
  const double cpu_us_per_row = Median(cpu_per_row);
  const double open_cpu_us_per_row = Median(open_cpu_per_row);
  std::printf("serve: closed loop (rounds of %zu) measured %.0f rows/s and "
              "%.3f serving CPU us/row, writer %.3f CPU us/row besides "
              "(medians of %zu rounds) | modeled %.0f rows/s "
              "(measured/modeled %.4f); host steal %.1f%%\n",
              p->closed_window(), rows_per_s, cpu_us_per_row,
              Median(writer_per_row), rounds.size(),
              modeled_rows_per_s, rows_per_s / modeled_rows_per_s,
              100 * closed_steal);
  std::printf("serve: open loop at %.0f rows/s: %.3f serving CPU us/row "
              "(median over %zu 100 ms windows); p50 %.4f ms, p99 %.4f ms "
              "(medians over %zu 100 ms windows); whole phase over %zu "
              "requests p50 %.4f ms, p%.0f %.4f ms; generator lateness p%.0f "
              "%.4f ms; host steal %.1f%%\n",
              p->open_rate_per_s(), open_cpu_us_per_row,
              open_cpu_per_row.size(), p50_ms, Median(window_p99),
              window_p50.size(), latency_ms.size(), Median(latency_ms),
              whole_p99.reported_pct, whole_p99.value, late.reported_pct,
              late.value, 100 * open_steal);
  std::printf("serve: %zu refreshes every %.0f ms, median writer CPU %.4f "
              "ms (store delta %.4f ms, model publish %.4f ms), median wall "
              "%.4f ms\n",
              refreshes.size(), p->refresh_period_s() * 1e3,
              Median(refresh_cpu_ms), Median(store_cpu_ms),
              Median(model_cpu_ms), Median(refresh_wall_ms));

  if (!args.trace) {
    res.Metric("setup_s", Median(init_s) + Median(serve_setup_s), "s");
    res.Metric("peak_rss_mb", PeakRssMb(), "MB");
    res.Metric("train_epoch_s", epoch_med, "s");
    res.Metric("train_loss", Median(losses), "objective");
    res.Metric("serve_cpu_us_per_row", open_cpu_us_per_row, "us");
    res.Metric("refresh_cpu_ms", Median(refresh_cpu_ms), "ms");
  } else {
    // Layer timings, single-threaded, after the serving workers stopped.
    const bool col = eopts.access == dw::engine::AccessMethod::kColWise;
    const StepFigures steps = MeasureSteps(p->train(), p->spec(),
                                           eopts.step_size, col, 3, &tracer);
    const LayerFigures lf = p->MeasureLayers(*server, &tracer);
    // Serial step time of the busiest worker, plus the boundary's
    // residual rebuild (one full pass per replica, done serially).
    const double step_s =
        col ? steps.col_step_ns * 1e-9 * max_worker_items +
                  replicas * steps.refresh_aux_s
            : steps.row_step_ns * 1e-9 * max_worker_items;
    // Stage means and batch rows over the open loop alone (the phase
    // whose latency they decompose): cumulative Stats() differenced.
    const dw::serve::FamilyServingStats& fs = stats.families.at(0);
    const dw::serve::FamilyServingStats& fc = closed_stats.families.at(0);
    const double open_rows = static_cast<double>(fs.requests - fc.requests);
    const double open_batches = static_cast<double>(fs.batches - fc.batches);
    const auto totals = tracer.Totals();
    std::printf("spans: %-24s %10s %14s %14s\n", "name", "count", "total_ms", "self_ms");
    for (const auto& [name, tot] : totals) {
      std::printf("spans: %-24s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(tot.count), tot.total_ns * 1e-6,
                  tot.self_ns * 1e-6);
    }
    std::vector<double> call_ns = tracer.Durations("serve.call");
    res.Metric("engine.init_s", Median(init_s), "s");
    res.Metric("engine.overhead_s", epoch_med - step_s, "s");
    res.Metric("engine.modeled_epoch_s", sim_med, "s");
    res.Metric("models.row_step_ns", steps.row_step_ns, "ns");
    res.Metric("models.col_step_ns", steps.col_step_ns, "ns");
    res.Metric("models.refresh_aux_s", steps.refresh_aux_s, "s");
    res.Metric("kernels.score_ns_per_row", lf.kernel_ns_per_row, "ns");
    res.Metric("batcher.submit_ns", lf.batcher_submit_ns, "ns");
    res.Metric("batcher.next_batch_ns_per_row", lf.batcher_next_batch_ns_per_row, "ns");
    res.Metric("serve.call_us", Median(call_ns) * 1e-3, "us");
    static const char* kStageMetric[dw::obs::kNumStages] = {
        "serve.stage.admit_us", "serve.stage.queue_us",
        "serve.stage.batch_form_us", "serve.stage.gather_us",
        "serve.stage.score_us", "serve.stage.complete_us"};
    for (int st = 0; st < dw::obs::kNumStages; ++st) {
      res.Metric(kStageMetric[st],
                 (fs.mean_stage_us[st] * fs.requests -
                  fc.mean_stage_us[st] * fc.requests) / open_rows,
                 "us");
    }
    res.Metric("serve.batch_rows",
               (fs.mean_batch_rows * fs.batches - fc.mean_batch_rows * fc.batches) /
                   open_batches,
               "count");
    res.Metric("serve.modeled_rows_per_s", modeled_rows_per_s, "1/s");
    res.Metric("store.gather_ns_per_row", lf.store_gather_ns_per_row, "ns");
    res.Metric("store.delta_publish_cpu_ms", Median(store_cpu_ms), "ms");
    res.Metric("store.delta_bytes", Median(delta_bytes), "bytes");
    res.Metric("registry.publish_cpu_ms", Median(model_cpu_ms), "ms");
    res.Metric("loadgen.late_p99_ms", late.value, "ms");
    // The closed loop's serving CPU time per row, untraced half vs
    // traced half (rows/s follows host steal too closely to tell).
    const double traced_cpu_us_per_row = Median(traced_cpu_per_row);
    res.Metric("trace.overhead_pct",
               100.0 * (traced_cpu_us_per_row - cpu_us_per_row) / cpu_us_per_row,
               "%");
    std::printf("trace: closed loop untraced %.3f CPU us/row (%.0f rows/s), "
                "traced %.3f CPU us/row (%.0f rows/s)\n",
                cpu_us_per_row, rows_per_s, traced_cpu_us_per_row,
                Median(traced_rounds));
    mkdir(args.trace_dir.c_str(), 0755);
    const std::string path = args.trace_dir + "/spans_" + args.workload + "_" +
                             std::to_string(args.seed) + ".csv";
    if (tracer.WriteCsv(path)) {
      std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());
    } else {
      std::printf("trace: could not write %s\n", path.c_str());
    }
  }
  server.reset();
  res.PrintChecks();
  std::printf("%s\n", res.Json().c_str());
  return 0;
}

}  // namespace

void Result::Check(bool ok, const std::string& name, const std::string& detail) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [&](const auto& c) { return c.first == name; });
  if (it == checks_.end()) {
    checks_.push_back({name, {}});
    it = checks_.end() - 1;
    std::printf("check %s: %s (%s)\n", ok ? "ok" : "FAIL", name.c_str(), detail.c_str());
  } else if (!ok) {
    std::printf("check FAIL: %s (%s)\n", name.c_str(), detail.c_str());
  }
  (ok ? it->second.passed : it->second.failed)++;
  if (!ok) correct_ = false;
}

void Result::PrintChecks() const {
  for (const auto& [name, t] : checks_) {
    std::printf("checks: %llu passed, %llu failed: %s\n",
                static_cast<unsigned long long>(t.passed),
                static_cast<unsigned long long>(t.failed), name.c_str());
  }
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  bool correct = correct_;
  std::string metrics;
  for (const auto& [name, vu] : metrics_) {
    double v = vu.first;
    if (!std::isfinite(v)) {
      correct = false;
      v = -1.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), v, vu.second.c_str());
    metrics += buf;
  }
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {" + metrics + "}}";
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    perfbench::Usage();
    return 2;
  }
  std::unique_ptr<perfbench::Pipeline> p;
  if (args.workload == "sgd_sparse_carried") {
    p.reset(perfbench::NewSparsePipeline());
  } else if (args.workload == "scd_dense_refresh") {
    p.reset(perfbench::NewDensePipeline(false));
  } else if (args.workload == "scd_dense_permachine") {
    p.reset(perfbench::NewDensePipeline(true));
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    perfbench::Usage();
    return 2;
  }
  return perfbench::Run(args, p.get());
}
