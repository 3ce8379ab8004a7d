// Measurement helpers of the end-to-end benchmark: percentiles with a
// tail-sample rule, the geometric mean, benchmark-owned trace spans with
// per-layer self time, an order-independent result fingerprint, and a
// small metric sheet that prints as the benchmark's JSON result line.
// Everything here is measured from outside the library; nothing in
// ../src is instrumented by the benchmark.

#ifndef PARQO_PERFBENCH_HELPERS_H_
#define PARQO_PERFBENCH_HELPERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/binding_table.h"

namespace parqo::perfbench {

/// Samples a reported percentile must leave beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `values` (q in (0, 1]): the smallest sample
/// with at least q * n samples at or below it. Returns 0 for no samples.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t TailSamples(std::size_t n, double q);

/// Geometric mean of positive values; 0 when `values` is empty or any
/// value is not positive.
double GeoMean(const std::vector<double>& values);

/// Median of `values` (mean of the middle two for an even count).
double Median(std::vector<double> values);

/// One completed request as the window slicing sees it.
struct TimedRequest {
  double at = 0;       ///< Completion, seconds since the window started.
  double latency = 0;  ///< Seconds; +infinity for a failed request.
  double check = 0;    ///< Client seconds then spent checking the output.
};

/// The timed window cut into equal slices by completion time. The host
/// this runs on is shared: bursts of other tenants' load, seconds long,
/// slow every request in a slice and never speed one up. The median
/// latency and the throughput are therefore taken over the quieter half
/// of the slices, those whose median latency is at or below the median
/// slice's.
struct Slices {
  std::vector<double> p50;         ///< Per slice, seconds.
  std::vector<double> throughput;  ///< Per slice, successful requests/s.
  std::vector<double> quiet_latencies;  ///< Pooled over the quiet slices.
  double quiet_throughput = 0;
};

/// `clients` closed-loop clients ran for `window_seconds`; time they spent
/// checking outputs is not serving time and leaves each slice's divisor.
Slices CutSlices(const std::vector<TimedRequest>& requests,
                 double window_seconds, int clients, int num_slices);

/// Steady-clock nanoseconds since an arbitrary process-wide origin.
std::int64_t NowNs();

/// One timed interval recorded by the benchmark around a public call.
/// Spans of one request share `request`; `parent` is the id of the span
/// that caused this one (0 for a request's root span).
struct Span {
  std::uint32_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";  ///< Static string, e.g. "sparql.parse".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-span self time in nanoseconds: the span's duration minus the part
/// of its interval covered by the union of its children (clipped to the
/// span). Indexed like `spans`; ids must be unique.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time summed per span name, in seconds.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Writes spans as JSON lines; false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Order-independent fingerprint of a multiset of result rows. Columns
/// are matched by variable *name*, so two tables agree exactly when they
/// hold the same rows whatever their VarIds, column order or row order.
struct RowsFingerprint {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t sum_sq = 0;
  friend bool operator==(const RowsFingerprint&,
                         const RowsFingerprint&) = default;
};

/// `vars` pairs each result variable's name with its VarId in `table`.
RowsFingerprint Fingerprint(const BindingTable& table,
                            std::vector<std::pair<std::string, VarId>> vars);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// An ordered name -> (value, unit) sheet.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with shortest round-trip
  /// number formatting.
  std::string ToJson() const;

  using Row = std::pair<std::string, std::pair<double, std::string>>;
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// Shortest decimal text that reads back as `v` (JSON-safe: non-finite
/// values print as null).
std::string JsonNumber(double v);

/// JSON string literal with the required escapes.
std::string JsonString(const std::string& s);

}  // namespace parqo::perfbench

#endif  // PARQO_PERFBENCH_HELPERS_H_
