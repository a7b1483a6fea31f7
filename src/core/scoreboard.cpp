#include "core/scoreboard.hpp"

#include <memory>

namespace pmsb {

Scoreboard::Scoreboard(unsigned n_inputs, unsigned n_outputs, const CellFormat& fmt)
    : n_in_(n_inputs), n_out_(n_outputs), fmt_(fmt), awaiting_decision_(n_inputs),
      in_flight_(static_cast<std::size_t>(n_inputs) * n_outputs) {}

void Scoreboard::attach(CellSwitch& sw, std::vector<std::unique_ptr<CellSource>>& sources,
                        std::vector<std::unique_ptr<CellSink>>& sinks) {
  for (auto& src : sources)
    src->set_on_inject([this](const CellSource::Injection& inj) { on_inject(inj); });
  for (auto& snk : sinks)
    snk->set_on_deliver([this](const CellSink::Delivery& d) { on_deliver(d); });
  subscribe(sw.events());
}

void Scoreboard::subscribe(EventHub& events) {
  SwitchEvents ev;
  ev.on_accept = [this](unsigned i, Cycle a0, Cycle t0) { on_accept(i, a0, t0); };
  ev.on_drop = [this](unsigned i, Cycle a0, DropReason why) { on_drop(i, a0, why); };
  events_sub_ = events.subscribe(std::move(ev));
}

void Scoreboard::fail(std::string msg) {
  if (errors_.size() < 64) errors_.push_back(std::move(msg));
}

void Scoreboard::on_inject(const CellSource::Injection& inj) {
  ++injected_;
  if (inj.input >= n_in_ || inj.dest >= n_out_) {
    fail("injection with out-of-range ports");
    return;
  }
  awaiting_decision_[inj.input].push(Record{inj.uid, inj.input, inj.dest, inj.head_on_wire});
}

void Scoreboard::on_accept(unsigned input, Cycle a0, Cycle t0) {
  if (input >= n_in_ || awaiting_decision_[input].empty()) {
    fail("accept event with no cell awaiting a decision");
    return;
  }
  Record r = awaiting_decision_[input].front();
  awaiting_decision_[input].pop();
  if (r.head_on_wire + input_delay_ != a0)
    fail("accept event cycle mismatch: expected a0=" +
         std::to_string(r.head_on_wire + input_delay_) + " got " + std::to_string(a0));
  if (t0 <= a0) fail("write wave granted before the head word was latched");
  in_flight_[static_cast<std::size_t>(input) * n_out_ + r.dest].push(r);
}

void Scoreboard::on_drop(unsigned input, Cycle a0, DropReason) {
  ++dropped_;
  if (input >= n_in_ || awaiting_decision_[input].empty()) {
    fail("drop event with no cell awaiting a decision");
    return;
  }
  Record r = awaiting_decision_[input].front();
  awaiting_decision_[input].pop();
  if (r.head_on_wire + input_delay_ != a0) fail("drop event cycle mismatch");
}

void Scoreboard::on_deliver(const CellSink::Delivery& d) {
  ++delivered_;
  if (d.output >= n_out_) {
    fail("delivery on out-of-range output");
    return;
  }
  if (d.words.size() != fmt_.length_words) {
    fail("delivered cell has wrong length");
    return;
  }
  // The delivered cell must be the oldest in-flight cell of exactly one
  // (input, d.output) pair -- per-pair FIFO order through the shared buffer.
  for (unsigned i = 0; i < n_in_; ++i) {
    auto& q = in_flight_[static_cast<std::size_t>(i) * n_out_ + d.output];
    if (q.empty()) continue;
    const Record& r = q.front();
    if (cell_matches(d.words, r.uid, r.dest, fmt_)) {
      latency_.record(r.head_on_wire, d.head_cycle);
      q.pop();
      return;
    }
  }
  fail("delivered cell at output " + std::to_string(d.output) +
       " matches no head-of-line in-flight cell (corruption or reordering), head word=" +
       std::to_string(d.words[0]));
}

bool Scoreboard::fully_drained() const {
  for (const auto& q : awaiting_decision_) {
    if (!q.empty()) return false;
  }
  for (const auto& q : in_flight_) {
    if (!q.empty()) return false;
  }
  return true;
}

}  // namespace pmsb
