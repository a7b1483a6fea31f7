#include "core/dual_switch.hpp"

#include <stdexcept>

namespace pmsb {

ConfigValidation DualSwitchConfig::check() const {
  ConfigValidation v;
  auto issue = [&v](ConfigIssue::Code c, std::string msg) {
    v.issues.push_back(ConfigIssue{c, std::move(msg)});
  };
  if (n_ports < 2)
    issue(ConfigIssue::Code::kBadPorts, "dual organization needs n_ports >= 2");
  if (word_bits < 1 || word_bits > 64)
    issue(ConfigIssue::Code::kBadWordBits, "word_bits must be in [1, 64]");
  else if (dest_bits() >= word_bits)
    issue(ConfigIssue::Code::kHeadTooNarrow,
          "head word too narrow for the destination field");
  if (capacity_segments_per_group == 0)
    issue(ConfigIssue::Code::kBadCapacity, "capacity must be >= 1 cell per group");
  if (clock_mhz <= 0) issue(ConfigIssue::Code::kBadClock, "clock_mhz must be positive");
  return v;
}

void DualSwitchConfig::validate() const {
  const ConfigValidation v = check();
  if (!v.ok()) throw std::invalid_argument(v.summary());
}

DualPipelinedSwitch::DualPipelinedSwitch(const DualSwitchConfig& cfg, AddrPathMode addr_mode)
    : cfg_((cfg.validate(), cfg)),
      S_(cfg.stages()),
      mem_{PipelinedMemory(S_, cfg.capacity_segments_per_group, cfg.word_bits, addr_mode),
           PipelinedMemory(S_, cfg.capacity_segments_per_group, cfg.word_bits, addr_mode)},
      ir_(cfg.n_ports, S_, cfg.word_bits),
      orow_(S_, cfg.n_ports, cfg.word_bits),
      free_{FreeList(cfg.capacity_segments_per_group), FreeList(cfg.capacity_segments_per_group)},
      rr_read_(cfg.n_ports),
      rr_write_(cfg.n_ports),
      queues_(cfg.n_ports),
      in_links_(cfg.n_ports),
      out_links_(cfg.n_ports),
      in_fsm_(cfg.n_ports),
      pending_(cfg.n_ports),
      next_read_ok_(cfg.n_ports, 0) {}

void DualPipelinedSwitch::eval(Cycle t) {
  ++stats_.cycles;
  const int read_group = grant_read(t);
  grant_write(t, read_group);
  // Record address starvation for drop attribution: a pending write that
  // cannot find space in any group it is allowed to use this cycle has lost
  // its window guarantee.
  const bool space0 = read_group != 0 && free_[0].can_alloc(1);
  const bool space1 = read_group != 1 && free_[1].can_alloc(1);
  if (!space0 && !space1) {
    for (auto& p : pending_) {
      if (p.valid) p.addr_starved = true;
    }
  }
  expire_pending(t);
  mem_[0].exec_cycle(ir_, orow_);
  mem_[1].exec_cycle(ir_, orow_);
  orow_.drive_links(out_links_);
  process_arrivals(t);
}

int DualPipelinedSwitch::grant_read(Cycle t) {
  const int o = rr_read_.pick([&](unsigned out) {
    return next_read_ok_[out] <= t && !queues_[out].empty();
  });
  if (o < 0) return -1;
  DualCell cell = queues_[o].front();
  queues_[o].pop_front();
  next_read_ok_[o] = t + static_cast<Cycle>(S_);

  StageCtrl c;
  c.op = StageOp::kRead;
  c.addr = cell.addr;
  c.out_link = static_cast<std::uint16_t>(o);
  c.head = true;
  mem_[cell.group].initiate(c);
  free_[cell.group].release(cell.addr);
  ++stats_.read_initiations;
  ++stats_.read_grants;
  const bool cut = t < cell.a0 + static_cast<Cycle>(cfg_.cell_words()) - 1;
  if (cut) ++stats_.cut_through_cells;
  events_.read_grant(static_cast<unsigned>(o), cell.input, t, cell.t0, cell.a0, cut);
  return static_cast<int>(cell.group);
}

void DualPipelinedSwitch::grant_write(Cycle t, int read_group) {
  // "One write operation ... will be initiated into the other one of the two
  //  memories" -- the group being read this cycle is off limits.
  const auto group_allowed = [&](unsigned g) {
    return static_cast<int>(g) != read_group && free_[g].can_alloc(1);
  };
  const int i = rr_write_.pick([&](unsigned in) {
    return pending_[in].valid && (group_allowed(0) || group_allowed(1));
  });
  if (i < 0) return;

  // Prefer the group with more free space (keeps the two halves balanced).
  unsigned g;
  if (group_allowed(0) && group_allowed(1))
    g = free_[0].available() >= free_[1].available() ? 0 : 1;
  else
    g = group_allowed(0) ? 0 : 1;

  Pending& p = pending_[i];
  const std::uint32_t addr = free_[g].alloc(1)[0];
  ir_.protect_for_wave(static_cast<unsigned>(i), t, p.a0);
  ++stats_.accepted;
  events_.accept(static_cast<unsigned>(i), p.a0, t);

  StageCtrl c;
  c.addr = addr;
  c.in_link = static_cast<std::uint16_t>(i);
  c.head = true;

  const unsigned dest = p.dest;
  const bool can_snoop = cfg_.cut_through && read_group < 0 && next_read_ok_[dest] <= t &&
                         queues_[dest].empty();
  if (can_snoop) {
    c.op = StageOp::kWriteSnoop;
    c.out_link = static_cast<std::uint16_t>(dest);
    next_read_ok_[dest] = t + static_cast<Cycle>(S_);
    free_[g].release(addr);  // Streams straight through; recycled immediately.
    ++stats_.snoop_initiations;
    ++stats_.snoop_cells;
    ++stats_.read_grants;
    const bool cut = t < p.a0 + static_cast<Cycle>(cfg_.cell_words()) - 1;
    if (cut) ++stats_.cut_through_cells;
    events_.read_grant(dest, static_cast<unsigned>(i), t, t, p.a0, cut);
  } else {
    c.op = StageOp::kWrite;
    ++stats_.write_initiations;
    staged_pushes_.push_back(DualCell{static_cast<unsigned>(i), dest, g, addr, p.a0, t});
  }
  mem_[g].initiate(c);
  if (read_group >= 0) ++dual_cycles_;
  p.valid = false;
}

void DualPipelinedSwitch::expire_pending(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    Pending& p = pending_[i];
    if (!p.valid) continue;
    const Cycle deadline = p.a0 + static_cast<Cycle>(S_);
    PMSB_CHECK(t <= deadline, "pending write survived past its latch window");
    if (t < deadline) continue;
    if (p.addr_starved)
      ++stats_.dropped_no_addr;
    else
      ++stats_.dropped_no_slot;
    events_.drop(i, p.a0,
                 p.addr_starved ? DropReason::kNoAddress : DropReason::kNoSlot);
    p.valid = false;
  }
}

void DualPipelinedSwitch::process_arrivals(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const Flit& f = in_links_[i].now();
    InFsm& fsm = in_fsm_[i];
    if (!fsm.receiving) {
      if (!f.valid) continue;
      PMSB_CHECK(f.sop, "cell body word arrived while the input expected a head");
      fsm.receiving = true;
      fsm.dest = decode_dest(f.data, cfg_.cell_format());
      PMSB_CHECK(fsm.dest < cfg_.n_ports, "destination out of range");
      fsm.a0 = t;
      ir_.latch(i, 0, f.data, t);
      fsm.phase = 1;
      fsm.stage = S_ > 1 ? 1 : 0;
      PMSB_CHECK(!pending_[i].valid, "new head while the previous cell is unresolved");
      pending_[i] = Pending{true, t, fsm.dest, false};
      ++stats_.heads_seen;
      events_.head(i, t, fsm.dest);
    } else {
      PMSB_CHECK(f.valid && !f.sop, "gap or unexpected head inside a cell");
      ir_.latch(i, fsm.stage, f.data, t);
      fsm.stage = fsm.stage + 1 == S_ ? 0 : fsm.stage + 1;
      ++fsm.phase;
      if (fsm.phase == cfg_.cell_words()) fsm.receiving = false;
    }
  }
}

void DualPipelinedSwitch::commit(Cycle t) {
  ir_.tick(t);
  mem_[0].tick();
  mem_[1].tick();
  orow_.tick();
  free_[0].tick();
  free_[1].tick();
  for (auto& c : staged_pushes_) queues_[c.dest].push_back(c);
  staged_pushes_.clear();
  for (auto& l : in_links_) l.tick();
  for (auto& l : out_links_) l.tick();
}

bool DualPipelinedSwitch::drained() const {
  if (mem_[0].busy() || mem_[1].busy()) return false;
  if (free_[0].in_use() != 0 || free_[1].in_use() != 0) return false;
  for (const auto& q : queues_) {
    if (!q.empty()) return false;
  }
  for (const auto& f : in_fsm_) {
    if (f.receiving) return false;
  }
  for (const auto& p : pending_) {
    if (p.valid) return false;
  }
  return true;
}

}  // namespace pmsb
