#include "perfbench/helpers.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace parqo::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::size_t TailSamples(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Slices CutSlices(const std::vector<TimedRequest>& requests,
                 double window_seconds, int clients, int num_slices) {
  const double len = window_seconds / num_slices;
  std::vector<std::vector<double>> latencies(num_slices);
  std::vector<double> busy(num_slices, len);
  std::vector<double> ok(num_slices, 0);
  for (const TimedRequest& r : requests) {
    int k = std::clamp(static_cast<int>(r.at / len), 0, num_slices - 1);
    latencies[k].push_back(r.latency);
    busy[k] -= r.check / clients;
    if (std::isfinite(r.latency)) ok[k] += 1;
  }
  Slices slices;
  for (int k = 0; k < num_slices; ++k) {
    slices.p50.push_back(Percentile(latencies[k], 0.5));
    slices.throughput.push_back(busy[k] > 0 ? ok[k] / busy[k] : 0);
  }
  const double cut = Median(slices.p50);
  double quiet_ok = 0, quiet_busy = 0;
  for (int k = 0; k < num_slices; ++k) {
    if (slices.p50[k] > cut) continue;
    slices.quiet_latencies.insert(slices.quiet_latencies.end(),
                                  latencies[k].begin(), latencies[k].end());
    quiet_ok += ok[k];
    quiet_busy += busy[k];
  }
  slices.quiet_throughput = quiet_busy > 0 ? quiet_ok / quiet_busy : 0;
  return slices;
}

std::int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    std::int64_t lo = std::max(s.start_ns, p.start_ns);
    std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<Span>& spans) {
  std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\": %u, \"id\": %u, \"parent\": %u, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.request, s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// splitmix64 finalizer: a bijective avalanche over 64 bits.
std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

RowsFingerprint Fingerprint(const BindingTable& table,
                            std::vector<std::pair<std::string, VarId>> vars) {
  std::sort(vars.begin(), vars.end());
  std::vector<int> cols;
  cols.reserve(vars.size());
  for (const auto& [name, v] : vars) cols.push_back(table.ColumnOf(v));
  RowsFingerprint fp;
  for (std::size_t r = 0; r < table.NumRows(); ++r) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int c : cols) {
      std::uint64_t x = c < 0 ? ~std::uint64_t{0}
                              : static_cast<std::uint64_t>(table.At(r, c));
      h = Mix(h ^ x);
    }
    ++fp.rows;
    fp.sum += h;
    fp.xr ^= h;
    fp.sum_sq += h * h;
  }
  return fp;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricSheet::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = {value, unit};
      return;
    }
  }
  rows_.push_back({name, {value, unit}});
}

double MetricSheet::Get(const std::string& name) const {
  for (const auto& row : rows_) {
    if (row.first == name) return row.second.first;
  }
  return 0;
}

std::string MetricSheet::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(rows_[i].first) +
           ": {\"value\": " + JsonNumber(rows_[i].second.first) +
           ", \"unit\": " + JsonString(rows_[i].second.second) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace parqo::perfbench
