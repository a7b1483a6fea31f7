#include "obs/flight_recorder.hpp"

namespace pmsb::obs {

const char* to_string(FlightStage s) {
  switch (s) {
    case FlightStage::kWaitGrant: return "wait_grant";
    case FlightStage::kBuffer: return "buffer";
    case FlightStage::kSerialize: return "serialize";
    case FlightStage::kTotal: return "total";
  }
  return "?";
}

FlightRecorder::FlightRecorder(unsigned n_ports, unsigned cell_words,
                               FlightRecorderConfig cfg)
    : n_ports_(n_ports), cell_words_(cell_words), cfg_(cfg) {
  PMSB_CHECK(n_ports_ > 0 && cell_words_ > 0, "flight recorder needs a real geometry");
  stages_.assign(kFlightStageCount, HdrHistogram());
  if (cfg_.per_pair)
    pairs_.assign(static_cast<std::size_t>(n_ports_) * n_ports_, HdrHistogram());
}

void FlightRecorder::attach(EventHub& hub) {
  SwitchEvents ev;
  ev.on_head = [this](unsigned, Cycle a0, unsigned) { on_head(a0); };
  ev.on_drop = [this](unsigned, Cycle a0, DropReason) { on_drop(a0); };
  ev.on_read_grant = [this](unsigned output, unsigned input, Cycle tr, Cycle t0,
                            Cycle a0, bool) { on_read_grant(output, input, tr, t0, a0); };
  sub_ = hub.subscribe(std::move(ev));
}

void FlightRecorder::register_metrics(MetricsRegistry& m, const std::string& prefix) {
  m_completed_ = m.counter(prefix + ".completed");
  m_dropped_ = m.counter(prefix + ".dropped");
}

const HdrHistogram& FlightRecorder::pair_total(unsigned input, unsigned output) const {
  PMSB_CHECK(cfg_.per_pair, "pair_total requires FlightRecorderConfig::per_pair");
  PMSB_CHECK(input < n_ports_ && output < n_ports_, "pair index out of range");
  return pairs_[static_cast<std::size_t>(input) * n_ports_ + output];
}

void FlightRecorder::on_head(Cycle a0) {
  if (a0 < cfg_.warmup) return;
  ++heads_;
}

void FlightRecorder::on_drop(Cycle a0) {
  if (a0 < cfg_.warmup) return;
  ++dropped_;
  if (m_dropped_ != nullptr) m_dropped_->inc();
}

void FlightRecorder::on_read_grant(unsigned output, unsigned input, Cycle tr, Cycle t0,
                                   Cycle a0) {
  if (a0 < cfg_.warmup) return;
  PMSB_CHECK(t0 > a0 && tr >= t0, "flight stages out of order");
  const std::uint64_t wait = static_cast<std::uint64_t>(t0 - a0);
  const std::uint64_t buffer = static_cast<std::uint64_t>(tr - t0);
  const std::uint64_t serialize = cell_words_;
  const std::uint64_t total = wait + buffer + serialize;
  stages_[static_cast<unsigned>(FlightStage::kWaitGrant)].add(wait);
  stages_[static_cast<unsigned>(FlightStage::kBuffer)].add(buffer);
  stages_[static_cast<unsigned>(FlightStage::kSerialize)].add(serialize);
  stages_[static_cast<unsigned>(FlightStage::kTotal)].add(total);
  if (cfg_.per_pair) {
    pairs_[static_cast<std::size_t>(input) * n_ports_ + output].add(total);
  }
  ++completed_;
  if (m_completed_ != nullptr) m_completed_->inc();
}

void FlightRecorder::merge(const FlightRecorder& other) {
  PMSB_CHECK(n_ports_ == other.n_ports_ && cell_words_ == other.cell_words_,
             "flight recorder merge with mismatched geometry");
  PMSB_CHECK(cfg_.per_pair == other.cfg_.per_pair,
             "flight recorder merge with mismatched config");
  for (unsigned s = 0; s < kFlightStageCount; ++s) stages_[s].merge(other.stages_[s]);
  for (std::size_t i = 0; i < pairs_.size(); ++i) pairs_[i].merge(other.pairs_[i]);
  heads_ += other.heads_;
  completed_ += other.completed_;
  dropped_ += other.dropped_;
}

void FlightRecorder::clear() {
  for (auto& h : stages_) h.clear();
  for (auto& h : pairs_) h.clear();
  heads_ = 0;
  completed_ = 0;
  dropped_ = 0;
}

}  // namespace pmsb::obs
