#include "check/stage_walk.hpp"

namespace pmsb::check {

StageWalkOracle::StageWalkOracle(unsigned stages, std::size_t words, unsigned word_bits)
    : path_7a_(stages, words, AddrPathMode::kPerStageDecoders),
      path_7b_(stages, words, AddrPathMode::kDecodedPipeline) {
  banks_.reserve(stages);
  for (unsigned s = 0; s < stages; ++s) banks_.emplace_back(words, word_bits);
}

void StageWalkOracle::audit(const CtrlPipeline& ctrl) const {
  ctrl.audit();
  path_7a_.audit();
  path_7b_.audit();
  // tick() clocked only the active stages' banks: any bank still holding a
  // claimed port or a staged write was touched outside them.
  for (const SramBank& b : banks_)
    PMSB_CHECK(!b.touched(), "an SRAM bank touched outside the active stages was never ticked");
}

void StageWalkOracle::exec_and_compare(const PipelinedMemory& mem, const InputLatches& ir,
                                       const OutputRow& orow) {
  const CtrlPipeline& ctrl = mem.ctrl();
  ctrl.for_each_active([&](unsigned s, const StageCtrl& c) {
    const auto op = static_cast<unsigned>(c.op);
    const long line_7a = path_7a_.active_addr(s, c.addr, true);
    const long line_7b = path_7b_.active_addr(s, c.addr, true);
    PMSB_CHECK(line_7a == line_7b, "figure 7a and 7b address paths selected different word lines");
    const auto addr = static_cast<std::size_t>(line_7b);
    const Word bus = banks_[s].access(addr, (op & 1) != 0, ir.read(c.in_link, s));
    PMSB_CHECK(mem.peek(addr, s) == bus,
               "wave model's cell diverged from the stage walk's bank word");
    if ((op & 2) == 0) return;
    const OutputRow::Slot& r = orow.staged(s);
    PMSB_CHECK(r.valid && r.out_link == c.out_link && r.flit.valid &&
                   r.flit.sop == (c.head && s == 0) && r.flit.data == bus,
               "wave model's output-row load diverged from the stage walk's");
  });
  // Every active stage found a valid word line above; equal counts leave no
  // valid word line on an idle stage (figure 7a/7b equivalence).
  PMSB_CHECK(path_7b_.valid_slots() == ctrl.active(),
             "word-line pipeline active but control pipeline idle");
  for (unsigned s = 0; s < banks_.size(); ++s) {
    const BankAccesses b = mem.bank(s);
    PMSB_CHECK(b.total_reads() == banks_[s].total_reads() &&
                   b.total_writes() == banks_[s].total_writes(),
               "wave model's per-bank access counts diverged from the stage walk's");
  }
  const AddrPathCounts a = mem.addr_path();
  PMSB_CHECK(a.decodes_7a == path_7a_.decode_ops() && a.decodes_7b == path_7b_.decode_ops() &&
                 a.one_hot_reg_transfers == path_7b_.one_hot_reg_transfers(),
             "wave model's address-path counts diverged from the stage walk's");
}

void StageWalkOracle::tick(const CtrlPipeline& ctrl) {
  ctrl.for_each_active([&](unsigned s, const StageCtrl&) { banks_[s].tick(); });
  path_7a_.tick();
  path_7b_.tick();
}

}  // namespace pmsb::check
