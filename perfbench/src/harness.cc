#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/stable/simulated_disk.h"

namespace perfbench {
namespace {

const std::int64_t g_process_start_ns = NowNs();

}  // namespace

std::int64_t SinceProcessStartNs() { return NowNs() - g_process_start_ns; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

// ---- Tracing ----

void SpanLog::Begin(std::uint32_t name, std::uint64_t op) {
  std::uint32_t kept = 0;
  if (spans_.size() < cap_) {
    Span span;
    span.name = name;
    span.op = op;
    span.parent = stack_.empty() ? 0 : stack_.back().kept;
    spans_.push_back(span);
    kept = static_cast<std::uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, op, NowNs(), 0, kept});
}

void SpanLog::End() {
  std::int64_t end = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  std::int64_t duration = end - open.start_ns;
  if (open.kept != 0) {
    spans_[open.kept - 1].start_ns = open.start_ns;
    spans_[open.kept - 1].end_ns = end;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (totals_.size() <= open.name) {
    totals_.resize(open.name + 1);
  }
  Total& total = totals_[open.name];
  ++total.count;
  total.total_ns += duration;
  total.self_ns += duration - open.child_ns;
}

SpanLog* Tracer::NewThreadLog() {
  std::lock_guard<std::mutex> l(mu_);
  logs_.push_back(std::unique_ptr<SpanLog>(new SpanLog(kSpansPerThread)));
  return logs_.back().get();
}

std::uint32_t Tracer::Name(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanLog::Total Tracer::TotalFor(const std::string& name) const {
  std::lock_guard<std::mutex> l(mu_);
  SpanLog::Total sum;
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    return sum;
  }
  std::size_t id = static_cast<std::size_t>(it - names_.begin());
  for (const auto& log : logs_) {
    if (id < log->totals_.size()) {
      sum.count += log->totals_[id].count;
      sum.total_ns += log->totals_[id].total_ns;
      sum.self_ns += log->totals_[id].self_ns;
    }
  }
  return sum;
}

double Tracer::MeanNs(const std::string& name) const {
  SpanLog::Total total = TotalFor(name);
  return total.count == 0 ? 0.0
                          : static_cast<double>(total.total_ns) / static_cast<double>(total.count);
}

bool Tracer::WriteOut(const std::string& path_prefix) const {
  std::lock_guard<std::mutex> l(mu_);
  std::FILE* spans = std::fopen((path_prefix + ".spans.csv").c_str(), "w");
  std::FILE* totals = std::fopen((path_prefix + ".totals.csv").c_str(), "w");
  bool ok = spans != nullptr && totals != nullptr;
  if (ok) {
    std::fprintf(spans, "thread,name,op,parent,start_ns,end_ns\n");
    std::fprintf(totals, "name,count,total_ns,self_ns,dropped_spans\n");
    std::uint64_t dropped = 0;
    std::vector<SpanLog::Total> sum(names_.size());
    for (std::size_t t = 0; t < logs_.size(); ++t) {
      const SpanLog& log = *logs_[t];
      dropped += log.dropped_;
      for (std::size_t i = 0; i < log.spans_.size(); ++i) {
        const SpanLog::Span& s = log.spans_[i];
        // Spans are numbered per thread, 1-based, so `parent` names a row of
        // the same thread (0 = no parent).
        std::fprintf(spans, "%zu,%s,%llu,%u,%lld,%lld\n", t, names_[s.name].c_str(),
                     static_cast<unsigned long long>(s.op), s.parent,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
      }
      for (std::size_t n = 0; n < log.totals_.size(); ++n) {
        sum[n].count += log.totals_[n].count;
        sum[n].total_ns += log.totals_[n].total_ns;
        sum[n].self_ns += log.totals_[n].self_ns;
      }
    }
    for (std::size_t n = 0; n < names_.size(); ++n) {
      std::fprintf(totals, "%s,%llu,%lld,%lld,%llu\n", names_[n].c_str(),
                   static_cast<unsigned long long>(sum[n].count),
                   static_cast<long long>(sum[n].total_ns), static_cast<long long>(sum[n].self_ns),
                   static_cast<unsigned long long>(dropped));
    }
  }
  if (spans != nullptr) {
    ok = std::fclose(spans) == 0 && ok;
  }
  if (totals != nullptr) {
    ok = std::fclose(totals) == 0 && ok;
  }
  return ok;
}

// ---- Medium probe ----

std::uint64_t MediumTotals::PhysicalBytes() const {
  std::lock_guard<std::mutex> l(mu_);
  std::uint64_t total = retired_physical_;
  for (const argus::StableMedium* medium : live_) {
    total += medium->physical_bytes_written();
  }
  return total;
}

std::uint64_t PhysicalBytesOfPages(std::uint64_t pages) {
  constexpr std::uint64_t kDuplexedReplicas = 2;
  return pages * kDuplexedReplicas * argus::kDiskPageSize;
}

ProbeMedium::ProbeMedium(std::unique_ptr<argus::StableMedium> inner, MediumTotals* totals,
                         bool timed)
    : inner_(std::move(inner)), totals_(totals), timed_(timed) {
  totals_->modeled_pages.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(totals_->mu_);
  totals_->live_.push_back(inner_.get());
}

ProbeMedium::~ProbeMedium() {
  std::lock_guard<std::mutex> l(totals_->mu_);
  totals_->retired_physical_ += inner_->physical_bytes_written();
  totals_->live_.erase(std::find(totals_->live_.begin(), totals_->live_.end(), inner_.get()));
}

argus::Status ProbeMedium::Append(std::span<const std::byte> data) {
  std::uint64_t offset = inner_->durable_size();
  std::int64_t start = timed_ ? NowNs() : 0;
  argus::Status s = inner_->Append(data);
  if (timed_) {
    totals_->append_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
  }
  if (s.ok() && !data.empty()) {
    std::uint64_t first = offset / argus::kDiskPageSize;
    std::uint64_t last = (offset + data.size() - 1) / argus::kDiskPageSize;
    totals_->modeled_pages.fetch_add(last - first + 2, std::memory_order_relaxed);
  }
  totals_->append_calls.fetch_add(1, std::memory_order_relaxed);
  totals_->append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  return s;
}

argus::Result<std::vector<std::byte>> ProbeMedium::Read(std::uint64_t offset, std::uint64_t len) {
  std::int64_t start = timed_ ? NowNs() : 0;
  argus::Result<std::vector<std::byte>> r = inner_->Read(offset, len);
  if (timed_) {
    totals_->read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
  }
  totals_->read_calls.fetch_add(1, std::memory_order_relaxed);
  totals_->read_bytes.fetch_add(len, std::memory_order_relaxed);
  return r;
}

argus::Status ProbeMedium::ReadInto(std::uint64_t offset, std::span<std::byte> out) {
  std::int64_t start = timed_ ? NowNs() : 0;
  argus::Status s = inner_->ReadInto(offset, out);
  if (timed_) {
    totals_->read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
  }
  totals_->read_calls.fetch_add(1, std::memory_order_relaxed);
  totals_->read_bytes.fetch_add(out.size(), std::memory_order_relaxed);
  return s;
}

argus::Status ProbeMedium::SubmitReads(std::span<argus::ReadRequest> requests) {
  std::int64_t start = timed_ ? NowNs() : 0;
  argus::Status s = inner_->SubmitReads(requests);
  if (timed_) {
    totals_->read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
  }
  std::uint64_t bytes = 0;
  for (const argus::ReadRequest& request : requests) {
    bytes += request.out.size();
  }
  totals_->read_calls.fetch_add(1, std::memory_order_relaxed);
  totals_->read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return s;
}

// ---- Result ----

void PrintResult(const RunResult& result) {
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: incorrect: %s\n", error.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    line += (i == 0 ? "" : ", ");
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
