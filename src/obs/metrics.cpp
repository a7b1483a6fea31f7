#include "obs/metrics.hpp"

namespace pmsb::obs {

Counter* MetricsRegistry::counter(const std::string& name) {
  if (!enabled_) return nullptr;
  for (auto& e : counters_) {
    if (e.name == name) return e.counter.get();
  }
  counters_.push_back(CounterEntry{name, std::make_unique<Counter>()});
  return counters_.back().counter.get();
}

void MetricsRegistry::add_gauge(const std::string& name, std::function<double()> fn) {
  if (!enabled_) return;
  PMSB_CHECK(fn != nullptr, "gauge needs a sampling callback");
  gauges_.push_back(GaugeEntry{name, std::move(fn), GaugeStats{}});
}

HdrHistogram* MetricsRegistry::hdr_histogram(const std::string& name,
                                             unsigned precision_bits) {
  if (!enabled_) return nullptr;
  for (auto& e : hdr_hists_) {
    if (e.name == name) {
      PMSB_CHECK(e.hist->precision_bits() == precision_bits,
                 "hdr_histogram re-requested with a different precision");
      return e.hist.get();
    }
  }
  hdr_hists_.push_back(HdrEntry{name, std::make_unique<HdrHistogram>(precision_bits)});
  return hdr_hists_.back().hist.get();
}

void MetricsRegistry::sample(Cycle t) {
  if (!enabled_) return;
  for (auto& g : gauges_) {
    const double v = g.fn();
    GaugeStats& s = g.stats;
    if (s.samples == 0) {
      s.min = s.max = v;
    } else {
      if (v < s.min) s.min = v;
      if (v > s.max) s.max = v;
    }
    s.last = v;
    s.sum += v;
    ++s.samples;
  }
  last_sample_ = t;
  ++samples_taken_;
  for (auto& h : hooks_) h.fn(t);
}

std::uint64_t MetricsRegistry::add_sample_hook(std::function<void(Cycle)> fn) {
  if (!enabled_) return 0;
  PMSB_CHECK(fn != nullptr, "sample hook needs a callback");
  const std::uint64_t id = next_hook_id_++;
  hooks_.push_back(HookEntry{id, std::move(fn)});
  return id;
}

void MetricsRegistry::remove_sample_hook(std::uint64_t id) {
  if (id == 0) return;
  for (std::size_t i = 0; i < hooks_.size(); ++i) {
    if (hooks_[i].id == id) {
      hooks_.erase(hooks_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void MetricsRegistry::reset() {
  for (auto& e : counters_) e.counter->reset();
  for (auto& g : gauges_) g.stats = GaugeStats{};
  for (auto& e : hdr_hists_) e.hist->clear();
  samples_taken_ = 0;
  last_sample_ = 0;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  for (const auto& e : counters_) {
    if (e.name == name) return e.counter.get();
  }
  return nullptr;
}

const GaugeStats* MetricsRegistry::find_gauge(const std::string& name) const {
  for (const auto& g : gauges_) {
    if (g.name == name) return &g.stats;
  }
  return nullptr;
}

const HdrHistogram* MetricsRegistry::find_hdr_histogram(const std::string& name) const {
  for (const auto& e : hdr_hists_) {
    if (e.name == name) return e.hist.get();
  }
  return nullptr;
}

std::vector<MetricsRegistry::CounterView> MetricsRegistry::counters() const {
  std::vector<CounterView> out;
  out.reserve(counters_.size());
  for (const auto& e : counters_) out.push_back({e.name, e.counter->value()});
  return out;
}

std::vector<MetricsRegistry::GaugeView> MetricsRegistry::gauges() const {
  std::vector<GaugeView> out;
  out.reserve(gauges_.size());
  for (const auto& g : gauges_) out.push_back({g.name, g.stats});
  return out;
}

std::vector<MetricsRegistry::HdrHistogramView> MetricsRegistry::hdr_histograms() const {
  std::vector<HdrHistogramView> out;
  out.reserve(hdr_hists_.size());
  for (const auto& e : hdr_hists_) out.push_back({e.name, e.hist.get()});
  return out;
}

}  // namespace pmsb::obs
