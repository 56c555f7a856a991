// Measurement plumbing shared by the three workloads: clocks, latency
// samples, the in-memory span tracer of the traced run, a counting/timing
// StableMedium wrapper, and the result line.
//
// Everything here sits outside the program: spans are recorded around calls
// into the program's public API, and the medium wrapper is installed through
// RecoverySystemConfig::medium_factory like any other medium.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/stable/stable_medium.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required: how long the run measures
  bool trace = false;
  std::string work_dir = ".";  // temporary log files and span dumps go here
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nanoseconds since the process started (static initialization).
std::int64_t SinceProcessStartNs();

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// The value at quantile q (0..1) of `samples` (nearest rank); sorts in place.
double Quantile(std::vector<double>& samples, double q);

// ---- Tracing ----
//
// One Tracer per traced run. Each thread records into its own SpanLog; a span
// carries its name, start, end, parent and the id of the operation it belongs
// to. Per-name totals (count, total and self time) are kept for every span;
// the raw spans are kept up to a cap and written out when the run ends.
class Tracer;

class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index + 1 into this log's spans; 0 = root
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

 private:
  friend class Tracer;
  friend class ScopedSpan;
  struct Open {
    std::uint32_t name;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t kept;  // index + 1 into spans_, 0 when over the cap
  };
  explicit SpanLog(std::size_t cap) : cap_(cap) {}
  void Begin(std::uint32_t name, std::uint64_t op);
  void End();

  std::size_t cap_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<Total> totals_;  // indexed by name id
  std::uint64_t dropped_ = 0;
};

class Tracer {
 public:
  // Raw spans kept per thread; the per-name totals cover every span.
  static constexpr std::size_t kSpansPerThread = 20000;

  // A log for the calling thread; valid for the Tracer's lifetime.
  SpanLog* NewThreadLog();
  // Interns a span name (call before threads start recording).
  std::uint32_t Name(const std::string& name);

  // Summed over all thread logs.
  SpanLog::Total TotalFor(const std::string& name) const;
  double MeanNs(const std::string& name) const;

  // Writes every kept span as CSV (thread,name,op,parent,start_ns,end_ns) and
  // the per-name totals to `<path_prefix>.spans.csv` / `.totals.csv`.
  bool WriteOut(const std::string& path_prefix) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Records one span on `log` (no-op when `log` is null: the untraced run never
// reads a clock here).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint32_t name, std::uint64_t op) : log_(log) {
    if (log_ != nullptr) {
      log_->Begin(name, op);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// ---- Medium probe ----

// Counters shared by every ProbeMedium a factory builds. Physical bytes of a
// medium are folded in when its wrapper is destroyed (a checkpoint retires
// the old log), so PhysicalBytes() covers every medium ever built.
struct MediumTotals {
  std::atomic<std::uint64_t> append_calls{0};
  std::atomic<std::uint64_t> append_bytes{0};
  std::atomic<std::int64_t> append_ns{0};
  // Page writes a Lampson-Sturgis medium makes per replica, counted apart
  // from the medium's own physical_bytes_written(): the superblock page when
  // the medium is formatted, then for every append the pages it covers plus
  // the superblock page that commits it.
  std::atomic<std::uint64_t> modeled_pages{0};
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::int64_t> read_ns{0};

  std::uint64_t PhysicalBytes() const;

 private:
  friend class ProbeMedium;
  mutable std::mutex mu_;
  std::uint64_t retired_physical_ = 0;
  std::vector<const argus::StableMedium*> live_;
};

// Physical bytes a duplexed medium writes for `pages` page writes per
// replica (see MediumTotals::modeled_pages).
std::uint64_t PhysicalBytesOfPages(std::uint64_t pages);

// Forwards every call to `inner`, counting calls and bytes; with `timed` it
// also times appends and reads (the traced run only).
class ProbeMedium final : public argus::StableMedium {
 public:
  ProbeMedium(std::unique_ptr<argus::StableMedium> inner, MediumTotals* totals, bool timed);
  ~ProbeMedium() override;
  ProbeMedium(const ProbeMedium&) = delete;
  ProbeMedium& operator=(const ProbeMedium&) = delete;

  argus::Status Append(std::span<const std::byte> data) override;
  argus::Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override;
  argus::Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override;
  argus::Status SubmitReads(std::span<argus::ReadRequest> requests) override;
  std::uint64_t durable_size() const override { return inner_->durable_size(); }
  argus::Status RecoverAfterCrash() override { return inner_->RecoverAfterCrash(); }
  std::uint64_t physical_bytes_written() const override {
    return inner_->physical_bytes_written();
  }

 private:
  std::unique_ptr<argus::StableMedium> inner_;
  MediumTotals* totals_;
  bool timed_;
};

// ---- Result ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Why the run is incorrect (printed to stderr).
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Prints the result as the last line of standard output.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
