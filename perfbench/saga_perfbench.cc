/**
 * @file
 * saga_perfbench — one measured benchmark of the SAGA library, end to end
 * and per layer.
 *
 * Every workload is a stream of edge batches made visible batch by batch:
 *
 *   stream_inc  heavy-tailed "talk" profile into DAH, incremental SSSP.
 *               Ingest-heavy: INC recomputes only affected vertices, so
 *               the update phase carries most of each batch (paper Eq. 1).
 *   stream_fs   short-tailed "lj" profile into AC, from-scratch PageRank.
 *               Compute-heavy: every batch re-runs the power iteration.
 *   serve       "rmat" profile offered to an in-process GraphService on
 *               the hybrid store (half bootstrapped, half streamed as
 *               epochs) while open-loop clients read degrees, neighbor
 *               lists, BFS distances and the PageRank top-k. Exercises the
 *               epoch loop, the EpochGate and concurrent readers, which
 *               neither stream touches.
 *
 * A run repeats passes of "set up, stream every batch, check the final
 * state against a ReferenceStore oracle" until --seconds have elapsed,
 * cycling through kInputs streams derived from --seed (every one at least
 * once). Set-up is what a user pays before the first batch: the library's
 * dataset generator and stream shuffle plus runner or service
 * construction (serve also bootstraps half of the graph). Timings are
 * medians and 90th percentiles over the whole run, so one slow pass or a
 * burst of host noise moves them little.
 *
 * Usage: saga_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Progress goes to stderr; the last stdout line is one JSON object with
 * keys correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics; --trace 1 turns the library's telemetry on and
 * reports the per-layer decomposition of the same passes instead.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>

#include "algo/bfs.h"
#include "algo/pr.h"
#include "algo/sssp.h"
#include "ds/dyn_graph.h"
#include "ds/reference.h"
#include "gen/profiles.h"
#include "platform/thread_pool.h"
#include "saga/driver.h"
#include "saga/stream_source.h"
#include "serve/service.h"
#include "telemetry/telemetry.h"

namespace saga {
namespace {

using Clock = std::chrono::steady_clock;

/** Pool width of every runner and service: fixed, so hosts with other
    core counts still run the same schedule. */
constexpr std::size_t kThreads = 2;
/** Distinct streams a run cycles through, all derived from --seed: the
    run-to-run spread then reflects the library, not one graph's luck. */
constexpr std::uint64_t kInputs = 4;
/** Passes per run at least: every input once, set-up sampled as often. */
constexpr std::size_t kMinPasses = kInputs;
/** Open-loop client threads of the served workload, each at this rate. */
constexpr std::size_t kReaders = 2;
constexpr double kReadsPerSecond = 1000;
/** Readers sleep until this close to a request's due time, then spin: a
    virtual CPU's wake-up is often late by tens of microseconds, which
    would otherwise be charged to the service. */
constexpr auto kSpinWindow = std::chrono::microseconds(200);
/** Largest L1 distance from the oracle's PageRank vector: two runs of the
    1e-4-tolerance power iteration may stop one round apart. */
constexpr double kPrL1Tolerance = 2e-3;

struct Workload
{
    const char *name;
    const char *profile;
    DsKind ds;
    AlgKind alg;
    ModelKind model;
    bool served;
};

constexpr Workload kWorkloads[] = {
    {"stream_inc", "talk", DsKind::DAH, AlgKind::SSSP, ModelKind::INC,
     false},
    {"stream_fs", "lj", DsKind::AC, AlgKind::PR, ModelKind::FS, false},
    {"serve", "rmat", DsKind::Hybrid, AlgKind::BFS, ModelKind::FS, true},
};

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t k)
{
    return seed * kInputs + k;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Final state of a workload's whole edge set, computed on the oracle. */
struct Oracle
{
    std::uint64_t edges = 0;
    std::vector<double> values;
    std::vector<std::uint32_t> outDegree;
};

template <typename Alg>
std::vector<double>
referenceValues(const DynGraph<ReferenceStore> &g, ThreadPool &pool,
                NodeId source)
{
    AlgContext ctx;
    ctx.source = source;
    ctx.numNodesHint = g.numNodes();
    std::vector<typename Alg::Value> values;
    Alg::computeFs(g, pool, values, ctx);
    return std::vector<double>(values.begin(), values.end());
}

Oracle
makeOracle(const Workload &w, const DatasetProfile &p,
           const std::vector<Edge> &edges)
{
    ThreadPool pool(1);
    DynGraph<ReferenceStore> g(p.directed);
    g.update(EdgeBatch(edges), pool);
    Oracle o;
    o.edges = g.numEdges();
    switch (w.alg) {
      case AlgKind::BFS:
        o.values = referenceValues<Bfs>(g, pool, p.source);
        break;
      case AlgKind::PR:
        o.values = referenceValues<Pr>(g, pool, p.source);
        break;
      case AlgKind::SSSP:
        o.values = referenceValues<Sssp>(g, pool, p.source);
        break;
      default:
        throw std::logic_error("no oracle for this algorithm");
    }
    o.outDegree.resize(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        o.outDegree[v] = g.outDegree(v);
    return o;
}

bool
matchesOracle(AlgKind alg, const std::vector<double> &got,
              const std::vector<double> &want)
{
    if (got.size() != want.size())
        return false;
    if (alg != AlgKind::PR)
        return got == want;
    double l1 = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        l1 += std::fabs(got[i] - want[i]);
    return l1 <= kPrL1Tolerance;
}

/** Everything one run measured, pooled over its passes. */
struct Samples
{
    std::vector<double> setup; ///< seconds per pass
    std::vector<double> batch; ///< seconds from batch in to results visible
    std::vector<double> read;  ///< seconds per result read
    std::vector<double> rate;  ///< edges per second of batch time, per pass
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Telemetry summed over the streamed part of every pass. */
    std::array<std::uint64_t, telemetry::kNumPhases> phaseNs{};
    std::array<std::uint64_t, telemetry::kNumCounters> counters{};

    /** Fold the telemetry recorded since the last reset (quiescent). */
    void
    addTelemetry()
    {
        const telemetry::MetricsSnapshot snap = telemetry::snapshot();
        for (std::size_t i = 0; i < telemetry::kNumPhases; ++i)
            phaseNs[i] += snap.phases[i].totalNs;
        for (std::size_t i = 0; i < telemetry::kNumCounters; ++i)
            counters[i] += snap.counters[i];
    }

    std::uint64_t
    phase(telemetry::Phase p) const
    {
        return phaseNs[static_cast<std::size_t>(p)];
    }

    std::uint64_t
    counter(telemetry::Counter c) const
    {
        return counters[static_cast<std::size_t>(c)];
    }
};

/** The paper's loop: update + compute per batch, then read the result. */
void
streamPass(const Workload &w, const DatasetProfile &p, std::uint64_t seed,
           const Oracle &oracle, Samples &s)
{
    const Clock::time_point t0 = Clock::now();
    StreamSource source(p.generate(seed), p.batchSize, seed);
    RunConfig cfg;
    cfg.ds = w.ds;
    cfg.alg = w.alg;
    cfg.model = w.model;
    cfg.directed = p.directed;
    cfg.threads = kThreads;
    cfg.ctx.source = p.source;
    const std::unique_ptr<StreamingRunner> runner = makeRunner(cfg);
    s.setup.push_back(secondsSince(t0));

    telemetry::reset();
    std::vector<double> values;
    std::uint64_t batches = 0;
    std::uint64_t edges = 0;
    double busy = 0;
    while (source.hasNext()) {
        const EdgeBatch batch = source.next();
        const Clock::time_point b0 = Clock::now();
        runner->processBatch(batch);
        const double t = secondsSince(b0);
        s.batch.push_back(t);
        busy += t;
        edges += batch.size();
        const Clock::time_point r0 = Clock::now();
        values = runner->values();
        s.read.push_back(secondsSince(r0));
        ++batches;
    }
    s.addTelemetry();
    s.rate.push_back(static_cast<double>(edges) / busy);
    s.attempted += batches;
    if (runner->numEdges() != oracle.edges ||
        !matchesOracle(w.alg, values, oracle.values))
        s.failed += batches;
}

/** One open-loop client thread's results. */
struct ReaderResult
{
    std::vector<double> latency; ///< seconds from due time to reply
    std::uint64_t bad = 0;       ///< torn or epoch-regressing replies
};

/**
 * Issue reads on a fixed schedule until @p stop: request i is due at
 * start + i / kReadsPerSecond whether or not earlier replies were late,
 * and its latency counts from that due time, so a stalled service is
 * charged for the requests queued behind the stall.
 */
void
readerLoop(GraphService &svc, NodeId nodes, std::uint64_t seed,
           Clock::time_point start, const std::atomic<bool> &stop,
           ReaderResult &out)
{
    // Fine timer slack: sleep_until then wakes close to the due time.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<NodeId> node(0, nodes - 1);
    std::uniform_int_distribution<int> pick(0, 9);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kReadsPerSecond));
    std::uint64_t lastGraphEpoch = 0;
    std::uint64_t lastAlgoEpoch = 0;
    for (std::int64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const Clock::time_point due = start + i * interval;
        std::this_thread::sleep_until(due - kSpinWindow);
        while (Clock::now() < due) {
        }
        // Mix: 40% degree, 30% neighbors, 20% BFS distance, 10% top-k.
        const int cls = pick(rng);
        const NodeId v = node(rng);
        bool ok = true;
        std::uint64_t epoch = 0;
        if (cls < 4) {
            epoch = svc.degree(v).epoch;
        } else if (cls < 7) {
            const NeighborsReply r = svc.neighbors(v);
            epoch = r.epoch;
            ok = r.degree == r.neighbors.size();
        } else if (cls < 9) {
            const BfsReply r = svc.bfsDistance(v);
            epoch = r.epoch;
            ok = r.reachable == (r.distance != Bfs::kInf);
        } else {
            const TopKReply r = svc.pageRankTopK();
            epoch = r.epoch;
            ok = !r.entries.empty() &&
                 std::is_sorted(r.entries.begin(), r.entries.end(),
                                [](const TopKEntry &a, const TopKEntry &b) {
                                    return a.rank > b.rank;
                                });
        }
        out.latency.push_back(secondsSince(due));
        std::uint64_t &last = cls < 7 ? lastGraphEpoch : lastAlgoEpoch;
        if (!ok || epoch < last)
            ++out.bad;
        last = std::max(last, epoch);
    }
}

/** Client threads that stop and are joined on every exit path. */
class Readers
{
  public:
    Readers(GraphService &svc, NodeId nodes, std::uint64_t seed)
        : results_(kReaders)
    {
        const Clock::time_point start = Clock::now();
        for (std::size_t r = 0; r < kReaders; ++r)
            threads_.emplace_back(readerLoop, std::ref(svc), nodes,
                                  seed * 1000003 + r, start,
                                  std::cref(stop_), std::ref(results_[r]));
    }

    ~Readers() { join(); }

    Readers(const Readers &) = delete;
    Readers &operator=(const Readers &) = delete;

    /** Stop the clients and return their results. */
    const std::vector<ReaderResult> &
    finish()
    {
        join();
        return results_;
    }

  private:
    void
    join()
    {
        stop_.store(true, std::memory_order_release);
        for (std::thread &t : threads_)
            if (t.joinable())
                t.join();
    }

    std::atomic<bool> stop_{false};
    std::vector<ReaderResult> results_;
    std::vector<std::thread> threads_;
};

/**
 * The serving loop: each batch is offered to the admission queue and made
 * visible by one synchronous epoch step (stage, publish, BFS + PageRank
 * refresh, swap) while the client threads read concurrently.
 */
void
servePass(const Workload &w, const DatasetProfile &p, std::uint64_t seed,
          const Oracle &oracle, Samples &s)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<Edge> edges = p.generate(seed);
    shuffleEdges(edges, seed);
    const std::size_t boot = edges.size() / 2;
    ServeConfig cfg;
    cfg.ds = w.ds;
    cfg.directed = p.directed;
    cfg.threads = kThreads;
    cfg.bfsSource = p.source;
    cfg.epochMaxEdges = p.batchSize;
    cfg.queueDepthEdges = std::max(cfg.queueDepthEdges, p.batchSize);
    const std::unique_ptr<GraphService> svc = makeService(cfg);
    svc->bootstrap(std::vector<Edge>(edges.begin(), edges.begin() + boot));
    s.setup.push_back(secondsSince(t0));

    telemetry::reset();
    std::uint64_t batches = 0;
    std::uint64_t shed = 0;
    double busy = 0;
    Readers readers(*svc, p.numNodes, seed);
    for (std::size_t lo = boot; lo < edges.size(); lo += p.batchSize) {
        const std::size_t n = std::min(p.batchSize, edges.size() - lo);
        const Clock::time_point b0 = Clock::now();
        if (!svc->offerUpdate(edges.data() + lo, n))
            ++shed;
        svc->stepEpoch();
        const double t = secondsSince(b0);
        s.batch.push_back(t);
        busy += t;
        ++batches;
    }
    s.rate.push_back(static_cast<double>(edges.size() - boot) / busy);
    for (const ReaderResult &r : readers.finish()) {
        s.read.insert(s.read.end(), r.latency.begin(), r.latency.end());
        s.attempted += r.latency.size();
        s.failed += r.bad;
    }
    s.addTelemetry();

    bool ok = shed == 0 && svc->graphEpoch() == batches;
    const ServeStats stats = svc->stats();
    ok = ok && stats.graphEdges == oracle.edges &&
         stats.algoEpoch == stats.graphEpoch &&
         stats.graphNodes == oracle.values.size();
    for (NodeId v = 0; ok && v < oracle.values.size(); ++v)
        ok = static_cast<double>(svc->bfsDistance(v).distance) ==
                 oracle.values[v] &&
             svc->degree(v).outDegree == oracle.outDegree[v];
    s.attempted += batches;
    if (!ok)
        s.failed += batches;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    return v[mid];
}

/** Nearest-rank percentile @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return v[rank];
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

/**
 * The end-to-end view a user of the workload sees (--trace 0): medians
 * only. The tails move with every burst of host noise, so they are
 * reported per layer, unbounded.
 */
std::vector<Metric>
endToEnd(const Samples &s)
{
    return {
        {"edges_per_s", median(s.rate), "1/s"},
        {"batch_ms", median(s.batch) * 1e3, "ms"},
        {"read_us", median(s.read) * 1e6, "us"},
        {"setup_s", median(s.setup), "s"},
    };
}

/**
 * Per-layer decomposition from the library's own phase spans (--trace 1),
 * per streamed batch. Ingest is the update phase (stream) or the epoch
 * minus its refresh (serve: drain, stage, publish windows); compute is
 * the compute phase or the refresh. The batch and read tails close it.
 */
std::vector<Metric>
perLayer(const Workload &w, const Samples &s)
{
    using telemetry::Counter;
    using telemetry::Phase;
    const double batches = static_cast<double>(s.batch.size());
    const double computeNs = static_cast<double>(
        w.served ? s.phase(Phase::ServeRefresh) : s.phase(Phase::Compute));
    const double ingestNs =
        w.served ? static_cast<double>(s.phase(Phase::ServeEpoch)) -
                       computeNs
                 : static_cast<double>(s.phase(Phase::Update));
    const double scatterNs =
        static_cast<double>(s.phase(Phase::UpdateScatter));
    const auto perBatch = [&](Counter c) {
        return static_cast<double>(s.counter(c)) / batches;
    };
    return {
        {"scatter_ms", scatterNs / batches / 1e6, "ms"},
        {"apply_ms", (ingestNs - scatterNs) / batches / 1e6, "ms"},
        {"compute_ms", computeNs / batches / 1e6, "ms"},
        {"compute_rounds", perBatch(Counter::ComputeRounds), "count"},
        {"frontier_vertices", perBatch(Counter::ComputeFrontierVertices),
         "count"},
        {"edges_inserted", perBatch(Counter::IngestEdgesInserted), "count"},
        {"duplicates", perBatch(Counter::IngestDuplicates), "count"},
        {"batch_p90_ms", percentile(s.batch, 0.90) * 1e3, "ms"},
        {"read_p90_us", percentile(s.read, 0.90) * 1e6, "us"},
        {"read_p99_us", percentile(s.read, 0.99) * 1e6, "us"},
    };
}

void
printResult(const Samples &s, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                s.failed == 0 && s.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(s.attempted),
                static_cast<unsigned long long>(s.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

int
run(const Options &opt)
{
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (opt.workload == cand.name)
            w = &cand;
    if (w == nullptr) {
        std::cerr << "unknown workload: " << opt.workload << "\n";
        return 2;
    }
    const DatasetProfile *p = findProfile(w->profile);
    if (p == nullptr)
        throw std::logic_error("missing dataset profile");

    std::cerr << "perfbench: " << w->name << " (profile " << p->name
              << ", store " << toString(w->ds) << ", " << toString(w->alg)
              << " " << toString(w->model) << ") seed " << opt.seed
              << ", " << opt.seconds << " s, trace " << opt.trace << "\n";
    std::vector<Oracle> oracles;
    for (std::uint64_t k = 0; k < kInputs; ++k)
        oracles.push_back(
            makeOracle(*w, *p, p->generate(inputSeed(opt.seed, k))));
    telemetry::setEnabled(opt.trace);

    Samples s;
    const Clock::time_point begin = Clock::now();
    std::size_t passes = 0;
    while (passes < kMinPasses || secondsSince(begin) < opt.seconds) {
        const std::uint64_t k = passes % kInputs;
        if (w->served)
            servePass(*w, *p, inputSeed(opt.seed, k), oracles[k], s);
        else
            streamPass(*w, *p, inputSeed(opt.seed, k), oracles[k], s);
        ++passes;
    }
    telemetry::setEnabled(false);
    std::cerr << "perfbench: " << passes << " passes, " << s.batch.size()
              << " batches, " << s.read.size() << " reads, " << s.failed
              << " failed, " << secondsSince(begin) << " s\n";
    printResult(s, opt.trace ? perLayer(*w, s) : endToEnd(s));
    return 0;
}

} // namespace
} // namespace saga

int
main(int argc, char **argv)
{
    saga::Options opt;
    bool haveWorkload = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            std::size_t used = 0;
            if (flag == "--workload") {
                opt.workload = value;
                haveWorkload = true;
                used = value.size();
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value, &used);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                opt.trace = std::stoi(value, &used) != 0;
            }
            if (used == 0 || used != value.size())
                throw std::invalid_argument(flag);
        }
        if (argc % 2 == 0 || !haveWorkload || !(opt.seconds > 0))
            throw std::invalid_argument("arguments");
    } catch (const std::exception &) {
        std::cerr << "usage: saga_perfbench --workload "
                     "stream_inc|stream_fs|serve --seed N --seconds S "
                     "--trace 0|1\n";
        return 2;
    }
    try {
        return saga::run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
