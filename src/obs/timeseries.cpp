#include "obs/timeseries.hpp"

#include "obs/perfetto.hpp"

namespace pmsb::obs {

TimeSeriesSampler::TimeSeriesSampler(MetricsRegistry* m, std::size_t capacity)
    : reg_(m), capacity_(capacity) {
  PMSB_CHECK(capacity_ > 0, "time-series ring needs capacity >= 1");
  if (reg_ != nullptr) hook_id_ = reg_->add_sample_hook([this](Cycle t) { snapshot(t); });
}

TimeSeriesSampler::~TimeSeriesSampler() {
  if (reg_ != nullptr) reg_->remove_sample_hook(hook_id_);
}

void TimeSeriesSampler::snapshot(Cycle t) {
  if (reg_ == nullptr) return;
  const std::size_t nc = reg_->counter_count();
  const std::size_t ng = reg_->gauge_count();
  if (prev_counters_.size() < nc) prev_counters_.resize(nc, 0);

  Row row;
  row.t = t;
  row.counter_deltas.resize(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    const std::uint64_t v = reg_->counter_value(i);
    row.counter_deltas[i] = v - prev_counters_[i];
    prev_counters_[i] = v;
  }
  row.gauges.resize(ng);
  for (std::size_t i = 0; i < ng; ++i) row.gauges[i] = reg_->gauge_last(i);

  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(row));
  } else {
    ring_[head_] = std::move(row);
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

const TimeSeriesSampler::Row& TimeSeriesSampler::at(std::size_t i) const {
  PMSB_CHECK(i < ring_.size(), "time-series row index out of range");
  return ring_[(head_ + i) % ring_.size()];
}

TimeSeriesSampler::Series TimeSeriesSampler::series() const {
  Series s;
  s.dropped = dropped();
  if (reg_ != nullptr) {
    for (std::size_t i = 0; i < reg_->counter_count(); ++i)
      s.counter_columns.push_back(reg_->counter_name(i));
    for (std::size_t i = 0; i < reg_->gauge_count(); ++i)
      s.gauge_columns.push_back(reg_->gauge_name(i));
  }
  s.rows.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    Row row = at(i);
    row.counter_deltas.resize(s.counter_columns.size(), 0);
    row.gauges.resize(s.gauge_columns.size(), 0.0);
    s.rows.push_back(std::move(row));
  }
  return s;
}

namespace {
std::string component_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}
std::string series_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}
}  // namespace

void TimeSeriesSampler::to_perfetto(PerfettoTrace& out) const {
  const Series s = series();
  if (s.rows.empty()) return;

  // Discover components in column order; each gets one counter track.
  std::vector<std::string> components;
  auto tid_of = [&components](const std::string& name) -> unsigned {
    const std::string comp = component_of(name);
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (components[i] == comp) return static_cast<unsigned>(i);
    }
    components.push_back(comp);
    return static_cast<unsigned>(components.size() - 1);
  };
  std::vector<unsigned> counter_tid, gauge_tid;
  for (const auto& c : s.counter_columns) counter_tid.push_back(tid_of(c));
  for (const auto& g : s.gauge_columns) gauge_tid.push_back(tid_of(g));
  for (std::size_t i = 0; i < components.size(); ++i)
    out.set_track_name(static_cast<unsigned>(i), components[i]);

  for (const auto& row : s.rows) {
    for (std::size_t comp = 0; comp < components.size(); ++comp) {
      std::vector<std::pair<std::string, double>> args;
      for (std::size_t i = 0; i < s.counter_columns.size(); ++i) {
        if (counter_tid[i] != comp) continue;
        args.emplace_back(series_of(s.counter_columns[i]) + "/delta",
                          static_cast<double>(row.counter_deltas[i]));
      }
      for (std::size_t i = 0; i < s.gauge_columns.size(); ++i) {
        if (gauge_tid[i] != comp) continue;
        args.emplace_back(series_of(s.gauge_columns[i]), row.gauges[i]);
      }
      if (!args.empty()) {
        out.counter(row.t, static_cast<unsigned>(comp), components[comp], args);
      }
    }
  }
}

}  // namespace pmsb::obs
