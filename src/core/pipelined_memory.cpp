#include "core/pipelined_memory.hpp"

#include "check/invariants.hpp"
#include "check/stage_walk.hpp"

namespace pmsb {

PipelinedMemory::PipelinedMemory(unsigned stages, std::size_t words_per_stage, unsigned word_bits)
    : S_(stages), words_(words_per_stage), word_bits_(word_bits), ctrl_(stages) {
  PMSB_CHECK(stages >= 1, "pipelined memory needs at least one stage");
  PMSB_CHECK(words_per_stage > 0, "SRAM bank needs at least one word");
  PMSB_CHECK(word_bits >= 1 && word_bits <= 64, "SRAM word width out of range");
  cells_.assign(words_per_stage * stages, 0);
  if (check::env_enabled()) attach_oracle();
}

PipelinedMemory::~PipelinedMemory() = default;

void PipelinedMemory::exec_cycle(const InputLatches& ir, OutputRow& orow) {
  if (oracle_) oracle_->audit(ctrl_);
  ctrl_.for_each_active([&](unsigned s, const StageCtrl& c) {
    // An active stage's op is kWrite, kRead or kWriteSnoop: bit 0 stores the
    // latch into the cell, bit 1 loads OR[s] from it. The store selects
    // rather than branches on the kind.
    const auto op = static_cast<unsigned>(c.op);
    Word& cell = cells_[std::size_t{c.addr} * S_ + s];
    const Word in = ir.read(c.in_link, s);
    cell = (op & 1) != 0 ? in : cell;
    orow.load_if((op & 2) != 0, s, cell, c.out_link, c.head && s == 0);
  });
  executed_ = true;
  if (oracle_) oracle_->exec_and_compare(*this, ir, orow);
}

void PipelinedMemory::tick() {
  if (oracle_) oracle_->tick(ctrl_);
  ctrl_.tick();
  executed_ = false;
}

BankAccesses PipelinedMemory::bank(unsigned s) const {
  PMSB_CHECK(s < S_, "stage index out of range");
  // An in-flight wave at stage st has accessed stages [0, st] once this
  // cycle's exec_cycle() ran, [0, st) before it.
  const unsigned e = executed_ ? 1 : 0;
  BankAccesses b{read_waves_, write_waves_};
  ctrl_.for_each_active([&](unsigned st, const StageCtrl& c) {
    if (st + e > s) return;
    const auto op = static_cast<unsigned>(c.op);
    b.writes -= op & 1;
    b.reads -= op == static_cast<unsigned>(StageOp::kRead) ? 1 : 0;
  });
  return b;
}

AddrPathCounts PipelinedMemory::addr_path() const {
  const unsigned e = executed_ ? 1 : 0;
  const std::uint64_t waves = read_waves_ + write_waves_;
  // Figure 7a decodes at every stage access; 7b decodes once per wave, at
  // stage 0, and its one-hot line then moves beside the control bundle,
  // register for register.
  std::uint64_t accesses = waves * S_;
  unsigned undecoded = 0;
  ctrl_.for_each_active([&](unsigned st, const StageCtrl&) {
    accesses -= S_ - (st + e);
    undecoded += st + e == 0;
  });
  return {accesses, waves - undecoded, ctrl_.ctrl_reg_transfers()};
}

Word PipelinedMemory::peek(std::size_t addr, unsigned s) const {
  PMSB_CHECK(addr < words_ && s < S_, "peek address out of range");
  return cells_[addr * S_ + s];
}

void PipelinedMemory::attach_oracle() {
  if (oracle_) return;
  PMSB_CHECK(initiations_ == 0, "stage-walk oracle attached after the first wave");
  oracle_ = std::make_unique<check::StageWalkOracle>(S_, words_, word_bits_);
}

}  // namespace pmsb
