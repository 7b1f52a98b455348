// Host-time benchmark driver for the TierScape simulator.
//
//   tsbench --workload kv-waterfall --seed 42 --seconds 10 --trace 0
//
// Runs one named tiering workload in this process and prints one JSON object
// on stdout, which perfbench/run.py checks and turns into the benchmark's
// result line (perfbench/DESIGN.md describes the workloads and metrics).
//
//  --trace 0  End to end. Repeats complete runs of the library's own
//             RunExperiment driver, each on a freshly built system, cycling
//             over the workload's seeds_per_cycle seeds derived from --seed,
//             until --seconds have passed (each seed at least once). Each
//             run yields its
//             set-up time (workload construction and media sizing up to the
//             first measured op) in parts and its measured phase (first op
//             until RunExperiment returns) in chunks; kSetupOnlyRuns one-op
//             runs after each add set-up samples. Reported: ops per second
//             with each chunk of each seed at its fastest, the median over
//             seeds of each seed's set-up with each part at its fastest, and
//             the process's peak RSS.
//  --trace 1  Per layer. Up to kTracedPlainShare of the time as above, in
//             whole cycles, then as many runs of a mirror of RunExperiment's
//             loop that times every Workload::Op and TsDaemon::Observe call
//             from here, then a codec, checksum and zpool probe on pages of
//             the last traced run's address space.
//
// --seed defaults to the workload's own default seed, the one its committed
// digests are recorded at.
//
// Everything timed here is host wall time and never feeds the simulation.
// The simulated results are the correctness check: each run's result digest
// is printed, and every run of one seed must produce the same one.
#include <sys/resource.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"
#include "src/core/analytical.h"
#include "src/core/tier_specs.h"
#include "src/core/ts_daemon.h"
#include "src/core/waterfall.h"
#include "src/workloads/driver.h"
#include "src/workloads/kv_store.h"
#include "src/zswap/compressed_tier.h"

namespace tierscape {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t rank = std::min(
      values.size() - 1, static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// --- Workloads ---------------------------------------------------------------

enum class PolicyKind { kWaterfall, kAnalytical };

// Every workload is memcached-ycsb on the standard mix; they differ in policy
// and window length.
struct WorkloadSpec {
  std::string_view name;
  PolicyKind policy;
  double alpha;              // AnalyticalPolicy knob; unused by Waterfall
  std::uint64_t run_ops;     // measured ops per run
  std::uint64_t window_ops;  // fixed DaemonConfig::window_ops
  std::uint64_t default_seed;  // the library's default seed for the generator
  // A process cycles over this many seeds derived from --seed: run i
  // simulates RunSeed(spec, seed, i). Each seed's chunks are taken at their
  // fastest over its runs, so fewer seeds leave more runs to take them
  // from. kv-waterfall's work varies from stream to stream (its run time by
  // about 11%), so its cycle averages over more streams; kv-am-fine-windows'
  // fastest runs barely differ between streams, but the host's load moves
  // its runs by up to 1.7x, so it keeps more runs per seed.
  std::size_t seeds_per_cycle;
};

// Why each workload is here, and what it should show: perfbench/DESIGN.md.
// window_ops is fixed so that a longer run adds windows without changing
// what each window does.
constexpr WorkloadSpec kWorkloads[] = {
    {"kv-waterfall", PolicyKind::kWaterfall, 0.0, 37'500, 3'750, 42, 8},
    {"kv-am-fine-windows", PolicyKind::kAnalytical, 0.3, 1'500'000, 7'500, 42, 4},
};

// The traced mode's untraced runs, the baseline of trace.overhead_pct, take
// at most this share of --seconds. As many traced runs follow, and they are
// slower, so the two together fit in --seconds.
constexpr double kTracedPlainShare = 0.4;

// One-op runs after each measured run of --trace 0, for more set-up samples
// than there are measured runs: a set-up takes milliseconds, a run seconds.
constexpr std::size_t kSetupOnlyRuns = 8;

std::uint64_t RunSeed(const WorkloadSpec& spec, std::uint64_t seed, std::size_t run) {
  return SplitSeed(seed, run % spec.seeds_per_cycle);
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

// The seed sets the generator's own seed field.
std::unique_ptr<Workload> MakeWorkload(std::uint64_t seed) {
  KvConfig config = MemcachedYcsbConfig();
  config.seed = seed;
  return std::make_unique<KvWorkload>(config);
}

// Media sizing as the figure harnesses do it (WorkloadFootprint in
// bench/bench_common.h): a second instance reserves into a probe space.
std::size_t Footprint(std::uint64_t seed) {
  AddressSpace probe;
  MakeWorkload(seed)->Reserve(probe);
  return probe.total_bytes();
}

// The standard mix (DRAM + NVMM + CT-1 + CT-2), sized as fig07 sizes it.
SystemConfig SystemFor(std::size_t footprint, Observability& obs) {
  SystemConfig config = StandardMixConfig(footprint + footprint / 2, 3 * footprint);
  config.obs = &obs;
  return config;
}

std::unique_ptr<PlacementPolicy> MakePolicy(const WorkloadSpec& spec) {
  switch (spec.policy) {
    case PolicyKind::kWaterfall:
      return std::make_unique<WaterfallPolicy>();
    case PolicyKind::kAnalytical:
      return std::make_unique<AnalyticalPolicy>(spec.alpha);
  }
  return nullptr;
}

ExperimentConfig ConfigFor(const WorkloadSpec& spec, std::uint64_t ops) {
  ExperimentConfig config;
  config.ops = ops;
  config.daemon.window_ops = spec.window_ops;
  if (spec.policy != PolicyKind::kAnalytical) {
    // The figure grids' overrides for non-AM cells (RunOneCell in
    // bench/experiment_grid.cc): the §6.7 filter belongs to the analytical
    // model; threshold policies migrate exactly what their rule says.
    config.daemon.filter.enable_hysteresis = false;
    config.daemon.filter.demotion_benefit_factor = 1e18;
    config.daemon.filter.pressure_fault_limit = ~std::uint64_t{0};
  }
  return config;
}

// --- Correctness -------------------------------------------------------------

// Order-sensitive hash of a run's simulated results. Doubles are hashed by
// bit pattern, so any change to a simulated value changes the digest.
class ResultDigest {
 public:
  void Add(std::uint64_t value) { state_ = SplitMix64(state_ ^ value); }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x7473626e63683031ULL;
};

std::uint64_t DigestOf(double slowdown, double mean_tco_savings, double final_tco_savings,
                       std::uint64_t faults, std::uint64_t migrated_pages,
                       const std::vector<TsDaemon::WindowRecord>& windows) {
  ResultDigest digest;
  digest.Add(slowdown);
  digest.Add(mean_tco_savings);
  digest.Add(final_tco_savings);
  digest.Add(faults);
  digest.Add(migrated_pages);
  digest.Add(static_cast<std::uint64_t>(windows.size()));
  for (const TsDaemon::WindowRecord& window : windows) {
    for (const std::uint64_t pages : window.actual_pages) {
      digest.Add(pages);
    }
  }
  return digest.value();
}

// --- End-to-end runs ---------------------------------------------------------

// The measured phase is timed in chunks of window_ops / kChunksPerWindow ops:
// chunk i starts at op i × chunk_ops, and the last one ends when
// RunExperiment returns. Every run of one seed does the same work chunk by
// chunk, so each chunk can be taken at its fastest over the seed's runs.
constexpr std::uint64_t kChunksPerWindow = 10;

// Set-up is timed in the same way, in parts split where RunExperiment calls
// into the workload: up to Reserve (workload construction, the sizing probe,
// TieredSystem construction), Reserve, up to Populate (engine construction
// and PlaceInitial), Populate, and up to the first op (daemon construction).
constexpr std::size_t kSetupParts = 5;

// Forwards every call to the real workload and stamps the host time around
// Reserve and Populate and at the start of every chunk. The first chunk stamp
// is where RunExperiment's set-up ends.
class ChunkStamps : public Workload {
 public:
  ChunkStamps(Workload& inner, std::uint64_t chunk_ops, std::uint64_t ops)
      : inner_(inner), chunk_ops_(chunk_ops) {
    stamps_.reserve((ops + chunk_ops - 1) / chunk_ops);
  }

  std::string_view name() const override { return inner_.name(); }
  void Reserve(AddressSpace& space) override {
    setup_stamps_.push_back(Clock::now());
    inner_.Reserve(space);
    setup_stamps_.push_back(Clock::now());
  }
  void Populate(TieringEngine& engine) override {
    setup_stamps_.push_back(Clock::now());
    inner_.Populate(engine);
    setup_stamps_.push_back(Clock::now());
  }
  Nanos Op(TieringEngine& engine) override {
    if (ops_++ % chunk_ops_ == 0) {
      stamps_.push_back(Clock::now());
    }
    return inner_.Op(engine);
  }

  const std::vector<Clock::time_point>& setup_stamps() const { return setup_stamps_; }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  Workload& inner_;
  std::uint64_t chunk_ops_;
  std::uint64_t ops_ = 0;
  std::vector<Clock::time_point> setup_stamps_;
  std::vector<Clock::time_point> stamps_;
};

struct PlainRun {
  std::vector<double> setup_part_s;  // set-up, part by part
  double measured_s = 0.0;           // first op until RunExperiment returns
  std::vector<double> chunk_s;       // measured_s, chunk by chunk
  std::uint64_t digest = 0;
};

// Elementwise minimum of equal-length part times.
void KeepFastest(std::vector<double>& fastest, const std::vector<double>& parts) {
  if (fastest.empty()) {
    fastest = parts;
  }
  TS_CHECK(fastest.size() == parts.size()) << "runs of one seed differ in timed parts";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    fastest[i] = std::min(fastest[i], parts[i]);
  }
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) {
    total += value;
  }
  return total;
}

PlainRun RunPlain(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t ops) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Workload> workload = MakeWorkload(seed);
  const std::size_t footprint = Footprint(seed);
  Observability obs;
  TieredSystem system(SystemFor(footprint, obs));
  std::unique_ptr<PlacementPolicy> policy = MakePolicy(spec);
  ChunkStamps stamped(*workload, std::max<std::uint64_t>(1, spec.window_ops / kChunksPerWindow),
                      ops);
  const ExperimentResult result =
      RunExperiment(system, stamped, policy.get(), ConfigFor(spec, ops));
  const Clock::time_point end = Clock::now();

  PlainRun run;
  const std::vector<Clock::time_point>& stamps = stamped.stamps();
  std::vector<Clock::time_point> setup_stamps = {start};
  setup_stamps.insert(setup_stamps.end(), stamped.setup_stamps().begin(),
                      stamped.setup_stamps().end());
  setup_stamps.push_back(stamps.front());
  TS_CHECK(setup_stamps.size() == kSetupParts + 1) << "RunExperiment's set-up calls changed";
  for (std::size_t i = 0; i < kSetupParts; ++i) {
    run.setup_part_s.push_back(SecondsBetween(setup_stamps[i], setup_stamps[i + 1]));
  }
  run.measured_s = SecondsBetween(stamps.front(), end);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    run.chunk_s.push_back(SecondsBetween(stamps[i], i + 1 < stamps.size() ? stamps[i + 1] : end));
  }
  run.digest = DigestOf(result.slowdown, result.mean_tco_savings, result.final_tco_savings,
                        result.total_faults, result.migrated_pages, result.windows);
  return run;
}

// --- Traced runs -------------------------------------------------------------

// Times each Decide of a threshold policy. AnalyticalPolicy is never wrapped:
// TsDaemon dynamic_casts its policy to AnalyticalPolicy to wire the solver
// and charge solve cost, so a wrapper would change virtual time (and the
// digest check would catch it). AM decide time is WindowRecord::solve_ms.
class TimedPolicy : public PlacementPolicy {
 public:
  TimedPolicy(PlacementPolicy& inner, std::vector<double>& decide_ms)
      : inner_(inner), decide_ms_(decide_ms) {}

  std::string_view name() const override { return inner_.name(); }
  StatusOr<PlacementDecision> Decide(const PlacementInput& input, const CostModel& model,
                                     const DecisionContext& ctx) override {
    const Clock::time_point start = Clock::now();
    StatusOr<PlacementDecision> decision = inner_.Decide(input, model, ctx);
    decide_ms_.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    return decision;
  }

 private:
  PlacementPolicy& inner_;
  std::vector<double>& decide_ms_;
};

// Per-call spans in ns, pooled over every traced run into a fixed number of
// buckets, so memory does not grow with --seconds. Below 2^kSubBits ns a
// bucket is 1 ns wide; above, 1/2^kSubBits of its power of two.
class SpanHistogram {
 public:
  void Record(double ns) {
    const auto value = static_cast<std::uint32_t>(
        std::clamp(ns, 0.0, static_cast<double>(std::numeric_limits<std::uint32_t>::max())));
    ++buckets_[Index(value)];
    ++count_;
  }

  std::uint64_t count() const { return count_; }

  // Nearest rank, interpolated linearly inside the rank's bucket.
  double Percentile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const std::uint64_t rank = std::min(
        count_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
    std::uint64_t below = 0;
    std::size_t index = 0;
    while (below + buckets_[index] <= rank) {
      below += buckets_[index++];
    }
    const double within = (static_cast<double>(rank - below) + 0.5) /
                          static_cast<double>(buckets_[index]);
    return LowerBound(index) + within * (LowerBound(index + 1) - LowerBound(index));
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr std::size_t kLinear = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kLinear + (32 - kSubBits) * kLinear + 1;

  static std::size_t Index(std::uint32_t value) {
    if (value < kLinear) {
      return value;
    }
    const int shift = std::bit_width(value) - 1 - kSubBits;
    return kLinear + static_cast<std::size_t>(shift) * kLinear + ((value >> shift) - kLinear);
  }

  static double LowerBound(std::size_t index) {
    if (index < kLinear) {
      return static_cast<double>(index);
    }
    const std::size_t shift = (index - kLinear) / kLinear;
    const std::size_t sub = (index - kLinear) % kLinear;
    return std::ldexp(static_cast<double>(kLinear + sub), static_cast<int>(shift));
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

// Per-call samples, pooled over every traced run.
struct TraceSamples {
  SpanHistogram op_ns;
  SpanHistogram resident_op_ns;
  SpanHistogram fault_op_ns;
  SpanHistogram observe_inline_ns;
  std::vector<double> window_ms;  // Observe calls that closed a window
  std::vector<double> decide_ms;  // one per window
};

struct TracedRun {
  std::uint64_t digest = 0;
  double construct_s = 0.0;  // workload construction plus the sizing probe
  double place_initial_s = 0.0;
  double populate_s = 0.0;
  double measured_s = 0.0;  // first op until the mirror's teardown ends
  double stamps_s = 0.0;    // the stamps' own cost inside measured_s
  double covered_s = 0.0;   // inside the timed Op and Observe spans
  double fault_s = 0.0;     // inside Op calls that faulted
  double window_s = 0.0;    // inside Observe calls that closed a window
  double decide_s = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t migrated_pages = 0;
  RegistrySnapshot metrics;
  std::vector<CompressedTierSpec> compressed_tiers;
};

// Span timestamps. On x86-64 the TSC costs about half a steady_clock read
// here; ticks are converted to ns against steady_clock over the whole loop.
std::uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

// Stamps per op: before Op, after Op, after Observe.
constexpr std::uint64_t kStampsPerOp = 3;
constexpr int kStampPairs = 10'000;

// What an empty span reads: the median of back-to-back stamp pairs. On a
// shared x86-64 VM it is about 20 ns, a fifth of a resident op, so it is
// removed from every span, and once per stamp from the measured phase.
double EmptySpanTicks() {
  std::vector<double> pairs(kStampPairs);
  for (double& pair : pairs) {
    const std::uint64_t first = Ticks();
    pair = static_cast<double>(Ticks() - first);
  }
  return Median(std::move(pairs));
}

constexpr std::size_t kProbePages = 256;
constexpr std::uint64_t kProbeStream = 0x70726f6265;

// A fixed, seeded sample of the run's pages at their final versions.
std::vector<std::vector<std::byte>> SamplePages(const AddressSpace& space, std::uint64_t seed) {
  Rng rng(SplitSeed(seed, kProbeStream));
  std::vector<std::vector<std::byte>> pages(kProbePages, std::vector<std::byte>(kPageSize));
  for (std::vector<std::byte>& page : pages) {
    space.SynthesizePage(rng.NextBelow(space.total_pages()), page);
  }
  return pages;
}

// Mirrors RunExperiment (src/workloads/driver.cc) step for step, timing the
// calls into each layer, so its digest must equal the untraced run's.
TracedRun RunTraced(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t ops,
                    TraceSamples& samples, std::vector<std::vector<std::byte>>* probe_pages) {
  TracedRun run;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Workload> workload = MakeWorkload(seed);
  const std::size_t footprint = Footprint(seed);
  run.construct_s = SecondsBetween(start, Clock::now());

  Observability obs;
  const SystemConfig system_config = SystemFor(footprint, obs);
  run.compressed_tiers = system_config.compressed_tiers;
  TieredSystem system(system_config);
  std::unique_ptr<PlacementPolicy> policy = MakePolicy(spec);
  const bool analytical = spec.policy == PolicyKind::kAnalytical;
  std::unique_ptr<TimedPolicy> timed;
  PlacementPolicy* placement = policy.get();
  if (!analytical) {
    timed = std::make_unique<TimedPolicy>(*policy, samples.decide_ms);
    placement = timed.get();
  }
  const ExperimentConfig config = ConfigFor(spec, ops);
  const std::size_t decide_before = samples.decide_ms.size();

  FaultInjector* fault = system.fault();
  if (fault != nullptr) {
    fault->set_armed(false);
  }
  AddressSpace space;
  workload->Reserve(space);
  // Per-op raw records, allocated (and zero-filled, so already paged in)
  // before the measured phase.
  std::vector<std::uint64_t> before_op(config.ops);
  std::vector<std::uint64_t> after_op(config.ops);
  std::vector<std::uint64_t> after_observe(config.ops);
  std::vector<std::uint64_t> faults_after(config.ops);
  std::vector<std::uint64_t> windows_after(config.ops);
  std::vector<double> solve_ms;
  const double empty_span_ticks = EmptySpanTicks();
  std::uint64_t faults_start = 0;
  std::uint64_t tick_start = 0;
  std::uint64_t tick_end = 0;
  Clock::time_point loop_start;
  Clock::time_point loop_end;
  {
    TieringEngine engine(space, system.tiers(), config.engine);
    Clock::time_point phase = Clock::now();
    const Status placed = engine.PlaceInitial();
    TS_CHECK(placed.ok()) << "initial placement failed: " << placed.ToString();
    run.place_initial_s = SecondsBetween(phase, Clock::now());
    phase = Clock::now();
    workload->Populate(engine);
    run.populate_s = SecondsBetween(phase, Clock::now());

    DaemonConfig daemon_config = config.daemon;
    if (config.target_windows > 0 && daemon_config.window_ops == 0) {
      daemon_config.window_ops = std::max<std::uint64_t>(1, config.ops / config.target_windows);
    }
    TsDaemon daemon(engine, daemon_config.mode == DaemonMode::kPlace ? placement : nullptr,
                    daemon_config);
    if (fault != nullptr) {
      fault->set_armed(true);
    }

    Histogram op_latency_ns;
    const Nanos sim_start = engine.now();
    const Nanos opt_start = engine.optimal_now();
    faults_start = engine.total_faults();
    loop_start = Clock::now();
    tick_start = Ticks();
    for (std::uint64_t op = 0; op < config.ops; ++op) {
      before_op[op] = Ticks();
      const Nanos latency = workload->Op(engine);
      after_op[op] = Ticks();
      const Status window = daemon.Observe(AccessEvent{.latency = latency});
      after_observe[op] = Ticks();
      // Raw stores only; the spans are derived after the measured phase. What
      // runs from here to the next op's stamp is outside every span: these
      // stores and the driver's own per-op latency record.
      faults_after[op] = engine.total_faults();
      windows_after[op] = daemon.history().size();
      op_latency_ns.Record(latency);
      TS_CHECK(window.ok()) << "daemon window failed: " << window.ToString();
    }
    tick_end = Ticks();
    loop_end = Clock::now();
    for (const TsDaemon::WindowRecord& window : daemon.history()) {
      solve_ms.push_back(window.solve_ms);
    }

    const Nanos elapsed = engine.now() - sim_start;
    const Nanos opt_elapsed = engine.optimal_now() - opt_start;
    const double slowdown = opt_elapsed == 0 ? 1.0
                                             : static_cast<double>(elapsed) /
                                                   static_cast<double>(opt_elapsed);
    run.digest = DigestOf(slowdown, daemon.MeanTcoSavings(), engine.TcoSavings(),
                          engine.total_faults(), engine.total_migrated_pages(), daemon.history());
    run.migrated_pages = engine.total_migrated_pages();
  }  // engine and daemon are destroyed here, as when RunExperiment returns
  const Clock::time_point teardown_end = Clock::now();

  run.measured_s = SecondsBetween(loop_start, teardown_end);

  // Spans, outside the measured phase: op i runs from before_op[i] to
  // after_op[i], Observe i from there to after_observe[i], each less the
  // empty span. The rest of each op, outside every span, is the driver's
  // latency record and these raw stores.
  const double ns_per_tick = Ratio(static_cast<double>(NanosBetween(loop_start, loop_end)),
                                   static_cast<double>(tick_end - tick_start));
  const auto span_ns = [ns_per_tick, empty_span_ticks](std::uint64_t from, std::uint64_t to) {
    return std::max(0.0, static_cast<double>(to - from) - empty_span_ticks) * ns_per_tick;
  };
  run.stamps_s = static_cast<double>(kStampsPerOp * config.ops) * empty_span_ticks * ns_per_tick /
                 1e9;
  double covered_ns = 0.0;
  double fault_ns = 0.0;
  double window_ns = 0.0;
  std::uint64_t previous_faults = faults_start;
  std::uint64_t previous_windows = 0;
  for (std::uint64_t op = 0; op < config.ops; ++op) {
    const double op_ns = span_ns(before_op[op], after_op[op]);
    const double observe_ns = span_ns(after_op[op], after_observe[op]);
    covered_ns += op_ns + observe_ns;
    samples.op_ns.Record(op_ns);
    if (faults_after[op] != previous_faults) {
      run.faults += faults_after[op] - previous_faults;
      fault_ns += op_ns;
      samples.fault_op_ns.Record(op_ns);
    } else {
      samples.resident_op_ns.Record(op_ns);
    }
    previous_faults = faults_after[op];
    if (windows_after[op] != previous_windows) {
      window_ns += observe_ns;
      samples.window_ms.push_back(observe_ns / 1e6);
      if (analytical) {
        samples.decide_ms.push_back(solve_ms[windows_after[op] - 1]);
      }
    } else {
      samples.observe_inline_ns.Record(observe_ns);
    }
    previous_windows = windows_after[op];
  }
  run.covered_s = covered_ns / 1e9;
  run.fault_s = fault_ns / 1e9;
  run.window_s = window_ns / 1e9;
  for (std::size_t i = decide_before; i < samples.decide_ms.size(); ++i) {
    run.decide_s += samples.decide_ms[i] / 1e3;
  }
  run.metrics = obs.metrics.Snapshot();
  if (probe_pages != nullptr) {
    *probe_pages = SamplePages(space, seed);
  }
  return run;
}

// --- Codec, checksum and zpool probe -------------------------------------------

constexpr int kProbePasses = 5;
constexpr Algorithm kProbeAlgorithms[] = {Algorithm::kLzo, Algorithm::kZstd, Algorithm::kLz4,
                                          Algorithm::kDeflate};
constexpr PoolManager kProbePools[] = {PoolManager::kZbud, PoolManager::kZsmalloc};

struct CodecCost {
  double compress_ns = 0.0;  // per page
  double decompress_ns = 0.0;
};

struct PoolCost {
  double store_ns = 0.0;  // per StoreCompressed call
  double peek_ns = 0.0;
  double invalidate_ns = 0.0;
};

struct Probe {
  std::map<Algorithm, CodecCost> codecs;
  double checksum_ns = 0.0;  // per page
  std::map<PoolManager, PoolCost> pools;
  std::uint64_t checks = 0;  // byte-exact comparisons made
  std::uint64_t failures = 0;
};

double MedianNsPerItem(const std::vector<double>& pass_seconds, std::size_t items) {
  return items == 0 ? 0.0 : Median(pass_seconds) * 1e9 / static_cast<double>(items);
}

void ProbeCodec(Algorithm algorithm, const std::vector<std::vector<std::byte>>& pages,
                Probe& probe, std::vector<std::vector<std::byte>>& compressed_out) {
  const Compressor& codec = GetCompressor(algorithm);
  // Twice a page, as the migration pipeline's scratch slots: even an
  // incompressible page compresses (zswap rejects it later, not the codec).
  std::vector<std::vector<std::byte>> compressed(pages.size(),
                                                 std::vector<std::byte>(2 * kPageSize));
  std::vector<std::size_t> sizes(pages.size(), 0);
  std::vector<std::vector<std::byte>> restored(pages.size(), std::vector<std::byte>(kPageSize));
  std::vector<char> decoded(pages.size(), 0);
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const StatusOr<std::size_t> size = codec.Compress(pages[i], compressed[i]);
      sizes[i] = size.ok() ? *size : 0;
    }
    compress_s.push_back(SecondsBetween(start, Clock::now()));
    start = Clock::now();
    for (std::size_t i = 0; i < pages.size(); ++i) {
      decoded[i] = sizes[i] > 0 && codec
                                       .Decompress(std::span<const std::byte>(
                                                       compressed[i].data(), sizes[i]),
                                                   restored[i])
                                       .ok();
    }
    decompress_s.push_back(SecondsBetween(start, Clock::now()));
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    ++probe.checks;
    if (decoded[i] == 0 || restored[i] != pages[i]) {
      ++probe.failures;
    }
  }
  probe.codecs[algorithm] = {MedianNsPerItem(compress_s, pages.size()),
                             MedianNsPerItem(decompress_s, pages.size())};
  compressed_out.clear();
  for (std::size_t i = 0; i < pages.size(); ++i) {
    compressed_out.emplace_back(compressed[i].begin(),
                                compressed[i].begin() + static_cast<std::ptrdiff_t>(sizes[i]));
  }
}

// The pool alone, codec excluded: stores already-compressed bytes into a
// private tier on a private DRAM medium, peeks them back, then frees them.
PoolCost ProbePool(PoolManager manager, const std::vector<std::vector<std::byte>>& objects,
                   Probe& probe) {
  std::vector<double> store_s;
  std::vector<double> peek_s;
  std::vector<double> invalidate_s;
  std::size_t stored = 0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Medium medium(DramSpec(64 * kMiB));
    Observability obs;
    CompressedTier tier(0,
                        CompressedTierConfig{.label = std::string(PoolManagerName(manager)),
                                             .algorithm = Algorithm::kLzo,
                                             .pool_manager = manager},
                        medium, obs);
    std::vector<ZPoolHandle> handles;
    std::vector<std::size_t> sources;
    handles.reserve(objects.size());
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const StatusOr<CompressedTier::StoreResult> result = tier.StoreCompressed(objects[i]);
      if (result.ok()) {
        handles.push_back(result->handle);
        sources.push_back(i);
      }
    }
    store_s.push_back(SecondsBetween(start, Clock::now()));
    std::size_t peeked_bytes = 0;
    start = Clock::now();
    for (const ZPoolHandle handle : handles) {
      const StatusOr<std::span<const std::byte>> view = tier.PeekCompressed(handle);
      peeked_bytes += view.ok() ? view->size() : 0;
    }
    peek_s.push_back(SecondsBetween(start, Clock::now()));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const StatusOr<std::span<const std::byte>> view = tier.PeekCompressed(handles[i]);
      const std::vector<std::byte>& expected = objects[sources[i]];
      ++probe.checks;
      if (!view.ok() || view->size() != expected.size() ||
          !std::equal(view->begin(), view->end(), expected.begin())) {
        ++probe.failures;
      }
    }
    start = Clock::now();
    std::size_t freed = 0;
    for (const ZPoolHandle handle : handles) {
      freed += tier.Invalidate(handle).ok() ? 1 : 0;
    }
    invalidate_s.push_back(SecondsBetween(start, Clock::now()));
    ++probe.checks;
    if (freed != handles.size() || peeked_bytes == 0) {
      ++probe.failures;
    }
    stored = handles.size();
  }
  return {MedianNsPerItem(store_s, objects.size()), MedianNsPerItem(peek_s, stored),
          MedianNsPerItem(invalidate_s, stored)};
}

Probe RunProbe(const std::vector<std::vector<std::byte>>& pages) {
  Probe probe;
  std::vector<std::vector<std::byte>> lzo_objects;
  std::vector<std::vector<std::byte>> scratch;
  for (const Algorithm algorithm : kProbeAlgorithms) {
    ProbeCodec(algorithm, pages,  probe,
               algorithm == Algorithm::kLzo ? lzo_objects : scratch);
  }

  std::vector<double> checksum_s;
  std::uint64_t first_sum = 0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    std::uint64_t sum = 0;
    const Clock::time_point start = Clock::now();
    for (const std::vector<std::byte>& page : pages) {
      sum += PageChecksum(page);
    }
    checksum_s.push_back(SecondsBetween(start, Clock::now()));
    if (pass == 0) {
      first_sum = sum;
    }
    ++probe.checks;
    if (sum != first_sum) {
      ++probe.failures;
    }
  }
  probe.checksum_ns = MedianNsPerItem(checksum_s, pages.size());

  for (const PoolManager manager : kProbePools) {
    probe.pools[manager] = ProbePool(manager, lzo_objects, probe);
  }
  return probe;
}

// --- Metrics -------------------------------------------------------------------

// Percent of a traced run's measured phase, less the stamps' own cost, that
// is inside the timed Op and Observe spans.
double Coverage(const TracedRun& run) {
  return Ratio(run.covered_s, run.measured_s - run.stamps_s) * 100.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::uint64_t CounterValue(const RegistrySnapshot& snapshot, const std::string& name) {
  const MetricSnapshot* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->count;
}

// Throughput of one cycle of seeds, each chunk of each seed's measured phase
// at its fastest over that seed's runs: the host is shared, and other load
// only ever slows a run down, in bursts that hit parts of runs.
double FastestChunksOpsPerSecond(std::uint64_t ops, std::size_t seeds,
                                 const std::vector<PlainRun>& runs) {
  std::vector<std::vector<double>> fastest(seeds);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    KeepFastest(fastest[i % seeds], runs[i].chunk_s);
  }
  double cycle_s = 0.0;
  for (const std::vector<double>& chunks : fastest) {
    cycle_s += Sum(chunks);
  }
  return Ratio(static_cast<double>(ops * seeds), cycle_s);
}

// The same with each seed's whole run at its fastest: the traced runs have no
// chunks, so trace.overhead_pct compares the two modes with this.
template <typename Run>
double BestCycleOpsPerSecond(std::uint64_t ops, std::size_t seeds, const std::vector<Run>& runs) {
  std::vector<double> best(seeds, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    best[i % seeds] = std::min(best[i % seeds], runs[i].measured_s);
  }
  double cycle_s = 0.0;
  for (const double seconds : best) {
    cycle_s += seconds;
  }
  return Ratio(static_cast<double>(ops * seeds), cycle_s);
}

// fastest_setup_parts: per seed, each set-up part at its fastest over the
// seed's set-ups, for the reason above. The host switches between a fast and
// a slow speed within a second, and a set-up takes milliseconds, so a median
// of whole set-ups would follow that switch.
std::vector<Metric> EndToEndMetrics(std::uint64_t ops, const std::vector<PlainRun>& runs,
                                    const std::vector<std::vector<double>>& fastest_setup_parts) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<double> setup_s;
  for (const std::vector<double>& parts : fastest_setup_parts) {
    setup_s.push_back(Sum(parts));
  }
  return {{"sim_ops_per_s", FastestChunksOpsPerSecond(ops, fastest_setup_parts.size(), runs),
           "1/s"},
          {"setup_s", Median(setup_s), "s"},
          {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"}};
}

std::vector<Metric> LayerMetrics(std::uint64_t ops, std::size_t seeds,
                                 const std::vector<PlainRun>& plain,
                                 const std::vector<TracedRun>& traced,
                                 const TraceSamples& samples, const Probe& probe) {
  const auto median_of = [&traced](double TracedRun::*field) {
    std::vector<double> values;
    for (const TracedRun& run : traced) {
      values.push_back(run.*field);
    }
    return Median(values);
  };
  // Sums are reported per cycle. Every cycle simulates the same seeds, so
  // each count is exact and repeats in every process with the same --seed.
  const auto cycles = static_cast<double>(traced.size() / seeds);
  const auto per_cycle = [&traced, cycles](double TracedRun::*field) {
    double total = 0.0;
    for (const TracedRun& run : traced) {
      total += run.*field;
    }
    return total / cycles;
  };
  const auto count_per_cycle = [&traced, cycles](const std::string& name) {
    std::uint64_t total = 0;
    for (const TracedRun& run : traced) {
      total += CounterValue(run.metrics, name);
    }
    return static_cast<double>(total) / cycles;
  };
  const auto per_cycle_u64 = [&traced, cycles](std::uint64_t TracedRun::*field) {
    std::uint64_t total = 0;
    for (const TracedRun& run : traced) {
      total += run.*field;
    }
    return static_cast<double>(total) / cycles;
  };
  const double measured_s = per_cycle(&TracedRun::measured_s);
  const double window_s = per_cycle(&TracedRun::window_s);
  const double decide_s = per_cycle(&TracedRun::decide_s);
  const double fault_s = per_cycle(&TracedRun::fault_s);
  const double faults = per_cycle_u64(&TracedRun::faults);
  const double migrated = per_cycle_u64(&TracedRun::migrated_pages);

  const double plain_rate = BestCycleOpsPerSecond(ops, seeds, plain);
  const double traced_rate = BestCycleOpsPerSecond(ops, seeds, traced);

  // Compressed-tier traffic. A real compression is charged to each tier in
  // proportion to its stores (the registry counts real compressions only in
  // total); every load is a decompression with the tier's codec.
  const double real = count_per_cycle("wall/engine/migrate/fanout_compressed");
  const std::vector<CompressedTierSpec>& tiers = traced.back().compressed_tiers;
  double stores = 0.0;
  double loads = 0.0;
  double rejects = 0.0;
  for (const CompressedTierSpec& tier : tiers) {
    stores += count_per_cycle("zswap/" + tier.label + "/stores");
    loads += count_per_cycle("zswap/" + tier.label + "/loads");
    rejects += count_per_cycle("zswap/" + tier.label + "/rejects");
  }
  double compress_est_s = 0.0;
  double decompress_est_s = 0.0;
  for (const CompressedTierSpec& tier : tiers) {
    const auto cost = probe.codecs.find(tier.algorithm);
    TS_CHECK(cost != probe.codecs.end()) << "probe lacks codec " << AlgorithmName(tier.algorithm);
    compress_est_s += real * Ratio(count_per_cycle("zswap/" + tier.label + "/stores"), stores) *
                      cost->second.compress_ns / 1e9;
    decompress_est_s +=
        count_per_cycle("zswap/" + tier.label + "/loads") * cost->second.decompress_ns / 1e9;
  }
  const double hits = count_per_cycle("wall/compress_cache/hits");
  const double misses = count_per_cycle("wall/compress_cache/misses");

  std::vector<Metric> metrics = {
      {"workloads.construct_s", median_of(&TracedRun::construct_s), "s"},
      {"workloads.populate_s", median_of(&TracedRun::populate_s), "s"},
      {"tiering.place_initial_s", median_of(&TracedRun::place_initial_s), "s"},
      {"tiering.op_ns.p50", samples.op_ns.Percentile(0.5), "ns"},
      {"tiering.op_ns.p999", samples.op_ns.Percentile(0.999), "ns"},
      {"tiering.resident_op_ns.p50", samples.resident_op_ns.Percentile(0.5), "ns"},
      {"tiering.fault_op_ns.p50", samples.fault_op_ns.Percentile(0.5), "ns"},
      {"tiering.fault_op_ns.p999", samples.fault_op_ns.Percentile(0.999), "ns"},
      {"tiering.fault_s", fault_s, "s"},
      {"tiering.faults", faults, "count"},
      {"tiering.fault_us_per_fault", Ratio(fault_s * 1e6, faults), "us"},
      {"core.observe_inline_ns.p50", samples.observe_inline_ns.Percentile(0.5), "ns"},
      {"core.window_ms.p50", Percentile(samples.window_ms, 0.5), "ms"},
      {"core.window_ms.p75", Percentile(samples.window_ms, 0.75), "ms"},
      {"core.window_s", window_s, "s"},
      {"core.decide_s", decide_s, "s"},
      {"core.window_rest_s", window_s - decide_s, "s"},
      {"core.migrated_pages", migrated, "count"},
      {"core.window_us_per_migrated_page", Ratio(window_s * 1e6, migrated), "us"},
      {"solver.solve_ms.p50", Percentile(samples.decide_ms, 0.5), "ms"},
      {"telemetry.samples", count_per_cycle("daemon/samples"), "count"},
      {"zswap.stores", stores, "count"},
      {"zswap.loads", loads, "count"},
      {"zswap.rejects", rejects, "count"},
      {"compress.real_compressions", real, "count"},
      {"compress.cache_hits", hits, "count"},
      {"compress.cache_misses", misses, "count"},
      {"compress.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
  };
  for (const Algorithm algorithm : kProbeAlgorithms) {
    const std::string prefix = "compress." + std::string(AlgorithmName(algorithm));
    const CodecCost& cost = probe.codecs.at(algorithm);
    metrics.push_back({prefix + ".compress_mb_s", Ratio(kPageSize * 1e3, cost.compress_ns),
                       "MB/s"});
    metrics.push_back({prefix + ".decompress_mb_s", Ratio(kPageSize * 1e3, cost.decompress_ns),
                       "MB/s"});
  }
  metrics.push_back(
      {"compress.checksum_mb_s", Ratio(kPageSize * 1e3, probe.checksum_ns), "MB/s"});
  metrics.push_back({"compress.compress_share_est", Ratio(compress_est_s, measured_s), "ratio"});
  metrics.push_back(
      {"compress.decompress_share_est", Ratio(decompress_est_s, measured_s), "ratio"});
  for (const PoolManager manager : kProbePools) {
    const std::string prefix = "zpool." + std::string(PoolManagerName(manager));
    const PoolCost& cost = probe.pools.at(manager);
    metrics.push_back({prefix + ".store_ns", cost.store_ns, "ns"});
    metrics.push_back({prefix + ".peek_ns", cost.peek_ns, "ns"});
    metrics.push_back({prefix + ".invalidate_ns", cost.invalidate_ns, "ns"});
  }
  metrics.push_back({"trace.overhead_pct", (1.0 - Ratio(traced_rate, plain_rate)) * 100.0, "%"});
  metrics.push_back({"trace.coverage_pct",
                     Ratio(per_cycle(&TracedRun::covered_s),
                           measured_s - per_cycle(&TracedRun::stamps_s)) *
                         100.0,
                     "%"});
  return metrics;
}

// --- Output --------------------------------------------------------------------

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

struct RunRecord {
  std::string kind;  // "plain" or "traced"
  std::size_t index = 0;
  std::uint64_t digest = 0;
  double measured_s = 0.0;
  double coverage_pct = 100.0;  // traced runs: timed spans over measured_s
};

void PrintReport(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t ops,
                 const std::vector<RunRecord>& runs,
                 const Probe* probe, const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, std::size_t>>& sample_counts) {
  std::string out = "{\"workload\":\"" + std::string(spec.name) +
                    "\",\"seed\":" + std::to_string(seed) + ",\"run_ops\":" + std::to_string(ops) +
                    ",\"seeds_per_cycle\":" + std::to_string(spec.seeds_per_cycle) +
                    ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, runs[i].digest);
    out += (i > 0 ? ",{\"kind\":\"" : "{\"kind\":\"") + runs[i].kind +
           "\",\"seed_index\":" + std::to_string(runs[i].index % spec.seeds_per_cycle) +
           ",\"digest\":\"" + digest + "\",\"measured_s\":" + Number(runs[i].measured_s) +
           ",\"coverage_pct\":" + Number(runs[i].coverage_pct) + "}";
  }
  out += "],\"checks\":" + std::to_string(probe != nullptr ? probe->checks : 0) +
         ",\"check_failures\":" + std::to_string(probe != nullptr ? probe->failures : 0) +
         ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" +
           Number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "},\"samples\":{";
  for (std::size_t i = 0; i < sample_counts.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + sample_counts[i].first +
           "\":" + std::to_string(sample_counts[i].second);
  }
  out += "}}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
}

// --- Main ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;  // else the workload's default seed
  double seconds = 10.0;
  int trace = 0;
  std::uint64_t windows = 0;  // 0: the workload's own run length
};

bool ParseOptions(int argc, char** argv, Options& options) {
  if (argc % 2 != 1) {
    return false;
  }
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    }
    if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      options.has_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--windows") {
      options.windows = std::strtoull(value, &end, 10);
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds >= 0.0 &&
         (options.trace == 0 || options.trace == 1);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: tsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--windows N]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "tsbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const std::uint64_t ops =
      options.windows > 0 ? options.windows * spec->window_ops : spec->run_ops;
  const std::uint64_t seed = options.has_seed ? options.seed : spec->default_seed;

  const double plain_budget_s =
      options.trace == 1 ? kTracedPlainShare * options.seconds : options.seconds;
  std::vector<PlainRun> plain;
  const std::size_t seeds = spec->seeds_per_cycle;
  std::vector<std::vector<double>> fastest_setup_parts(seeds);
  std::vector<RunRecord> runs;
  const Clock::time_point begin = Clock::now();
  // Every seed runs at least once. The traced mode reports counts per cycle,
  // so it runs whole cycles, and starts another only if one more of the
  // average length still ends within its budget.
  const auto run_more = [&] {
    const double elapsed_s = SecondsBetween(begin, Clock::now());
    if (plain.size() < seeds) {
      return true;
    }
    if (options.trace == 0) {
      return elapsed_s < plain_budget_s;
    }
    const auto cycles = static_cast<double>(plain.size() / seeds);
    return plain.size() % seeds != 0 || elapsed_s * (cycles + 1.0) / cycles <= plain_budget_s;
  };
  while (run_more()) {
    const std::uint64_t run_seed = RunSeed(*spec, seed, plain.size());
    plain.push_back(RunPlain(*spec, run_seed, ops));
    runs.push_back({"plain", plain.size() - 1, plain.back().digest, plain.back().measured_s});
    std::vector<double>& fastest = fastest_setup_parts[(plain.size() - 1) % seeds];
    KeepFastest(fastest, plain.back().setup_part_s);
    for (std::size_t i = 0; options.trace == 0 && i < kSetupOnlyRuns; ++i) {
      KeepFastest(fastest, RunPlain(*spec, run_seed, 1).setup_part_s);
    }
  }
  if (options.trace == 0) {
    PrintReport(*spec, seed, ops, runs, nullptr,
                EndToEndMetrics(ops, plain, fastest_setup_parts), {});
    return 0;
  }

  TraceSamples samples;
  std::vector<TracedRun> traced;
  std::vector<std::vector<std::byte>> probe_pages;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    traced.push_back(RunTraced(*spec, RunSeed(*spec, seed, i), ops, samples,
                               i + 1 == plain.size() ? &probe_pages : nullptr));
    const TracedRun& run = traced.back();
    runs.push_back({"traced", i, run.digest, run.measured_s, Coverage(run)});
  }
  const Probe probe = RunProbe(probe_pages);
  PrintReport(*spec, seed, ops, runs, &probe,
              LayerMetrics(ops, seeds, plain, traced, samples, probe),
              {{"tiering.op_ns", samples.op_ns.count()},
               {"tiering.resident_op_ns", samples.resident_op_ns.count()},
               {"tiering.fault_op_ns", samples.fault_op_ns.count()},
               {"core.observe_inline_ns", samples.observe_inline_ns.count()},
               {"core.window_ms", samples.window_ms.size()},
               {"solver.solve_ms", samples.decide_ms.size()},
               {"compress.probe_pages", probe_pages.size()}});
  return 0;
}

}  // namespace
}  // namespace tierscape

int main(int argc, char** argv) { return tierscape::Main(argc, argv); }
