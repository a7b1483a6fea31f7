#include "core/pipelined_memory.hpp"

#include "check/invariants.hpp"

namespace pmsb {

PipelinedMemory::PipelinedMemory(unsigned stages, std::size_t words_per_stage, unsigned word_bits,
                                 AddrPathMode addr_mode)
    : ctrl_(stages),
      addr_path_(stages, words_per_stage, addr_mode),
      audit_(check::env_enabled()) {
  PMSB_CHECK(stages >= 1, "pipelined memory needs at least one stage");
  banks_.reserve(stages);
  for (unsigned s = 0; s < stages; ++s) banks_.emplace_back(words_per_stage, word_bits);
}

void PipelinedMemory::exec_cycle(const InputLatches& ir, OutputRow& orow) {
  if (audit_) audit();
  ctrl_.for_each_active([&](unsigned s, const StageCtrl& c) {
    // An active stage's op is kWrite, kRead or kWriteSnoop: bit 0 writes the
    // bank, bit 1 loads OR[s]. One bank access and one conditional load, no
    // branch on the kind.
    const auto op = static_cast<unsigned>(c.op);
    const auto addr = static_cast<std::size_t>(addr_path_.active_addr(s, c.addr, true));
    const Word bus = banks_[s].access(addr, (op & 1) != 0, ir.read(c.in_link, s));
    orow.load_if((op & 2) != 0, s, bus, c.out_link, c.head && s == 0);
  });
  // Every active stage found a valid word line above; equal counts leave no
  // valid word line on an idle stage (figure 7a/7b equivalence).
  PMSB_CHECK(addr_path_.mode() != AddrPathMode::kDecodedPipeline ||
                 addr_path_.valid_slots() == ctrl_.active(),
             "word-line pipeline active but control pipeline idle");
}

void PipelinedMemory::tick() {
  ctrl_.for_each_active([&](unsigned s, const StageCtrl&) { banks_[s].tick(); });
  ctrl_.tick();
  addr_path_.tick();
}

void PipelinedMemory::audit() const {
  ctrl_.audit();
  addr_path_.audit();
  // tick() clocked only the active stages' banks: any bank still holding a
  // claimed port or a staged write was touched outside them.
  for (const SramBank& b : banks_)
    PMSB_CHECK(!b.touched(), "an SRAM bank touched outside the active stages was never ticked");
}

}  // namespace pmsb
