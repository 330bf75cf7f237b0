// Shared plumbing of the host-time benchmark: the clock, the benchmark's own
// input generator, sample statistics, the run context every workload reads,
// and the result every workload fills in.
//
// The benchmark drives the mfw libraries from outside: it times calls into
// their public functions with std::chrono::steady_clock and adds no
// instrumentation to the libraries themselves.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mfw::modis {
class GranuleGenerator;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The benchmark's own input generator (SplitMix64), kept apart from the
/// program's util::Rng so that a change to the program cannot change the
/// inputs the benchmark feeds it.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }
  double normal(double mean, double sd);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a tag.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

/// Exact order statistic: the value at rank ceil(q * n) of the sorted
/// samples (q in (0, 1]); 0 for no samples.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// One simulated day of a campaign.
struct CampaignDay {
  int year = 2022;
  int day_of_year = 1;
};

/// Hands out campaign days, never the same day twice in a run, as a real
/// campaign does. Days step through the year by a golden-ratio stride from a
/// seeded start, so every run's days cover the seasons evenly whatever the
/// seed; after 365 days the next year starts at a fresh seeded offset.
class DayPlan {
 public:
  explicit DayPlan(std::uint64_t seed) : rng_(seed) {}
  CampaignDay next();

 private:
  static constexpr int kStride = 226;  // ~365 / golden ratio, coprime to 365
  InputRng rng_;
  int year_ = 2021;
  int offset_ = 0;
  int taken_ = 365;  // days handed out in year_
};

/// World seed of the synthetic archive: EomlConfig's default.
inline constexpr std::uint64_t kWorldSeed = 2022;

/// Σ selected_tiles over the daytime granules of the day's 288 Terra
/// granules at full geometry, computed through modis::estimate_granule_stats
/// directly: the tiles a timing-only campaign labels that day.
std::size_t campaign_day_tiles(const mfw::modis::GranuleGenerator& generator,
                               const CampaignDay& day);

struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name, as measured. perfbench/run.py matches them
  /// against the names and units BENCHMARK.json declares.
  std::map<std::string, double> metrics;
  /// Per-layer metrics of layers idle in the workload, by name or name
  /// prefix; run.py reports these as 0 and flags every other declared
  /// metric the workload did not set.
  std::vector<std::string> idle;
  /// Names of output checks shown to fail on a corrupted result.
  std::vector<std::string> selftest_caught;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Records one op's verdict; `problem` empty means the op passed.
  void record_op(const std::string& problem);
};

/// Set-ups per run whose median is setup_s.
inline constexpr int kSetupRuns = 5;

/// setup_s: the host time of a cold set-up, from workload start to the
/// first timed op. `setup` runs kSetupRuns - 1 times in forked children,
/// each started from this process's state before any set-up, so every one
/// pays the once-per-process costs (lazily built tables, memos, first-touch
/// allocation, function-local statics), and then once in this process,
/// which goes on to the timed ops. Returns the median of the cold times.
double cold_setup_s(const std::function<void()>& setup);

WorkloadResult run_campaign_watch(const RunContext& ctx);
WorkloadResult run_campaign_content(const RunContext& ctx);
WorkloadResult run_serve_read(const RunContext& ctx);
WorkloadResult run_serve_ingest(const RunContext& ctx);

}  // namespace perfbench
