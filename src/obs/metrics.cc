#include "src/obs/metrics.h"

#include <cstdio>
#include <sstream>

namespace syrup::obs {

uint64_t LatencyHistogram::Percentile(double pct) const {
  if (count_ == 0) {
    return 0;
  }
  if (pct < 0.0) pct = 0.0;
  if (pct > 100.0) pct = 100.0;
  // Rank of the target sample, 1-based, rounded up.
  const double exact = pct / 100.0 * static_cast<double>(count_);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) {
    ++rank;
  }
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t bucket = 0; bucket <= kNumBuckets; ++bucket) {
    seen += buckets_[bucket];
    if (seen >= rank) {
      // Clamp to the observed extremes so p100 reports max exactly.
      const uint64_t edge = BucketUpperEdge(bucket);
      return edge > max_ ? max_ : edge;
    }
  }
  return max_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (size_t bucket = 0; bucket <= kNumBuckets; ++bucket) {
    buckets_[bucket] += other.buckets_[bucket];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

const SnapshotMetric* Snapshot::Find(std::string_view app,
                                     std::string_view hook,
                                     std::string_view metric) const {
  auto app_it = apps.find(app);
  if (app_it == apps.end()) return nullptr;
  auto hook_it = app_it->second.find(hook);
  if (hook_it == app_it->second.end()) return nullptr;
  auto metric_it = hook_it->second.find(metric);
  if (metric_it == hook_it->second.end()) return nullptr;
  return &metric_it->second;
}

uint64_t Snapshot::CounterValue(std::string_view app, std::string_view hook,
                                std::string_view metric) const {
  const SnapshotMetric* m = Find(app, hook, metric);
  return m != nullptr && m->kind == SnapshotMetric::Kind::kCounter ? m->counter
                                                                   : 0;
}

int64_t Snapshot::GaugeValue(std::string_view app, std::string_view hook,
                             std::string_view metric) const {
  const SnapshotMetric* m = Find(app, hook, metric);
  return m != nullptr && m->kind == SnapshotMetric::Kind::kGauge ? m->gauge : 0;
}

const HistogramSummary* Snapshot::Histogram(std::string_view app,
                                            std::string_view hook,
                                            std::string_view metric) const {
  const SnapshotMetric* m = Find(app, hook, metric);
  return m != nullptr && m->kind == SnapshotMetric::Kind::kHistogram
             ? &m->histogram
             : nullptr;
}

namespace {

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  std::string s = os.str();
  // JSON has no inf/nan; metrics never produce them, but stay valid anyway.
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

void AppendMetric(std::string& out, const SnapshotMetric& m) {
  switch (m.kind) {
    case SnapshotMetric::Kind::kCounter:
      out += "{\"type\":\"counter\",\"value\":";
      out += std::to_string(m.counter);
      out += "}";
      return;
    case SnapshotMetric::Kind::kGauge:
      out += "{\"type\":\"gauge\",\"value\":";
      out += std::to_string(m.gauge);
      out += "}";
      return;
    case SnapshotMetric::Kind::kHistogram: {
      const HistogramSummary& h = m.histogram;
      out += "{\"type\":\"histogram\",\"count\":";
      out += std::to_string(h.count);
      out += ",\"min\":";
      out += std::to_string(h.min);
      out += ",\"max\":";
      out += std::to_string(h.max);
      out += ",\"mean\":";
      out += FormatDouble(h.mean);
      out += ",\"p50\":";
      out += std::to_string(h.p50);
      out += ",\"p90\":";
      out += std::to_string(h.p90);
      out += ",\"p99\":";
      out += std::to_string(h.p99);
      out += ",\"p999\":";
      out += std::to_string(h.p999);
      out += "}";
      return;
    }
  }
}

}  // namespace

std::string Snapshot::ToJson(bool pretty) const {
  const char* nl = pretty ? "\n" : "";
  auto indent = [&](std::string& out, int depth) {
    if (pretty) out.append(static_cast<size_t>(depth) * 2, ' ');
  };

  std::string out;
  out += "{";
  out += nl;
  indent(out, 1);
  out += "\"apps\":{";
  out += nl;
  bool first_app = true;
  for (const auto& [app, hooks] : apps) {
    if (!first_app) {
      out += ",";
      out += nl;
    }
    first_app = false;
    indent(out, 2);
    AppendJsonString(out, app);
    out += ":{";
    out += nl;
    bool first_hook = true;
    for (const auto& [hook, metrics] : hooks) {
      if (!first_hook) {
        out += ",";
        out += nl;
      }
      first_hook = false;
      indent(out, 3);
      AppendJsonString(out, hook);
      out += ":{";
      out += nl;
      bool first_metric = true;
      for (const auto& [metric, value] : metrics) {
        if (!first_metric) {
          out += ",";
          out += nl;
        }
        first_metric = false;
        indent(out, 4);
        AppendJsonString(out, metric);
        out += ":";
        AppendMetric(out, value);
      }
      out += nl;
      indent(out, 3);
      out += "}";
    }
    out += nl;
    indent(out, 2);
    out += "}";
  }
  out += nl;
  indent(out, 1);
  out += "}";
  out += nl;
  out += "}";
  return out;
}

std::shared_ptr<Counter> MetricsRegistry::GetCounter(std::string_view app,
                                                     std::string_view hook,
                                                     std::string_view metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell =
      cells_[Key{std::string(app), std::string(hook), std::string(metric)}];
  if (cell.counter == nullptr) {
    cell.counter = std::make_shared<Counter>();
  }
  return cell.counter;
}

std::shared_ptr<Gauge> MetricsRegistry::GetGauge(std::string_view app,
                                                 std::string_view hook,
                                                 std::string_view metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell =
      cells_[Key{std::string(app), std::string(hook), std::string(metric)}];
  if (cell.gauge == nullptr) {
    cell.gauge = std::make_shared<Gauge>();
  }
  return cell.gauge;
}

std::shared_ptr<LatencyHistogram> MetricsRegistry::GetHistogram(
    std::string_view app, std::string_view hook, std::string_view metric) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell =
      cells_[Key{std::string(app), std::string(hook), std::string(metric)}];
  if (cell.histogram == nullptr) {
    cell.histogram = std::make_shared<LatencyHistogram>();
  }
  return cell.histogram;
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [key, cell] : cells_) {
    Snapshot::MetricMap& metrics = snap.apps[key.app][key.hook];
    // A key can (by convention doesn't) hold several kinds; suffix any
    // beyond the first so none is silently dropped.
    if (cell.counter != nullptr) {
      SnapshotMetric m;
      m.kind = SnapshotMetric::Kind::kCounter;
      m.counter = cell.counter->Load();
      metrics[key.metric] = m;
    }
    if (cell.gauge != nullptr) {
      SnapshotMetric m;
      m.kind = SnapshotMetric::Kind::kGauge;
      m.gauge = cell.gauge->Load();
      metrics[cell.counter == nullptr ? key.metric : key.metric + ".gauge"] = m;
    }
    if (cell.histogram != nullptr) {
      const LatencyHistogram& h = *cell.histogram;
      SnapshotMetric m;
      m.kind = SnapshotMetric::Kind::kHistogram;
      m.histogram.count = h.count();
      m.histogram.min = h.min();
      m.histogram.max = h.max();
      m.histogram.mean = h.Mean();
      m.histogram.p50 = h.Percentile(50.0);
      m.histogram.p90 = h.Percentile(90.0);
      m.histogram.p99 = h.Percentile(99.0);
      m.histogram.p999 = h.Percentile(99.9);
      metrics[cell.counter == nullptr && cell.gauge == nullptr
                  ? key.metric
                  : key.metric + ".histogram"] = m;
    }
  }
  return snap;
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, cell] : cells_) {
    n += (cell.counter != nullptr) + (cell.gauge != nullptr) +
         (cell.histogram != nullptr);
  }
  return n;
}

}  // namespace syrup::obs
