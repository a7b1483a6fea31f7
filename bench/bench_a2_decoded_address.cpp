// A2 -- Ablation for section 4.3 / figure 7: per-stage address decoders
// (7a) versus the novel decoded-address pipeline (7b). The two are
// functionally identical, so one switch run counts both: the pipelined
// memory derives each organization's activity from the same waves (under
// PMSB_CHECK=1 the stage-walk oracle executes both address paths beside the
// memory and checks every word line). What differs is the hardware
// exercised per wave: S decode operations versus 1 decode plus (S-1)
// one-hot register transfers -- and the area charged per stage ("a decoded
// address pipeline register is 2.3 times smaller than the normal address
// decoder").

#include <cstdio>
#include <vector>

#include "area/models.hpp"
#include "bench_util.hpp"
#include "core/testbench.hpp"

using namespace pmsb;
using namespace pmsb::bench;

namespace {

struct PathRun {
  AddrPathCounts counts;
  std::uint64_t cells;
};

PathRun run_switch(Cycle cycles) {
  const SwitchConfig cfg = SwitchConfig::telegraphos3();
  TrafficSpec spec;
  spec.arrivals = ArrivalKind::kSaturated;
  spec.load = 1.0;
  spec.seed = 17;
  PipelinedSwitch sw(cfg);
  Engine eng;
  UniformDest dests(cfg.n_ports);
  Rng seeder(spec.seed);
  std::vector<std::unique_ptr<CellSource>> sources;
  for (unsigned i = 0; i < cfg.n_ports; ++i) {
    sources.push_back(std::make_unique<CellSource>(i, &sw.in_link(i), cfg.cell_format(),
                                                   &dests, spec.arrivals, spec.load,
                                                   seeder.split()));
    eng.add(sources.back().get());
  }
  eng.add(&sw);
  eng.run(cycles);
  return PathRun{sw.memory().addr_path(), sw.stats().read_grants};
}

}  // namespace

int main(int argc, char** argv) {
  return pmsb::bench::Main(
      argc, argv, {"A2", "decoded-address pipeline ablation (section 4.3, figure 7)", "a2_decoded_address"},
      [](pmsb::bench::BenchContext& ctx) {
    const Cycle kCycles = 30000;
    const PathRun r = run_switch(kCycles);
    const AddrPathCounts& c = r.counts;
    const auto cells = Table::integer(static_cast<long long>(r.cells));
    const double reduction = static_cast<double>(c.decodes_7a) / static_cast<double>(c.decodes_7b);

    std::printf("\nTelegraphos III configuration, saturated uniform traffic, %lld cycles.\n"
                "Both address paths are counted from the same switch run (the two\n"
                "circuits select the same word line in every stage access; PMSB_CHECK=1\n"
                "executes both beside the memory and asserts it):\n\n",
                static_cast<long long>(kCycles));
    Table t({"address path", "decode operations", "one-hot reg transfers", "cells switched"});
    t.add_row({"fig 7(a): decoder per stage", Table::integer(static_cast<long long>(c.decodes_7a)),
               Table::integer(0), cells});
    t.add_row({"fig 7(b): decoded pipeline", Table::integer(static_cast<long long>(c.decodes_7b)),
               Table::integer(static_cast<long long>(c.one_hot_reg_transfers)), cells});
    t.print();
    std::printf("\nDecode operations reduced by %.1fx (S = 16 stages decode once instead\n"
                "of sixteen times per wave).\n", reduction);

    std::printf("\nArea view (per stage, D = 256 word lines, section 4.4 constants):\n\n");
    const auto tech = area::full_custom_1um();
    const double decoder_um2 = tech.decoder_um2_per_word * 256;
    const double line_ff_um2 = decoder_um2 * tech.line_pipe_ratio;
    Table ar({"per-stage address circuit", "model um^2", "relative"});
    ar.add_row({"full decoder (7a)", Table::num(decoder_um2, 0), "2.3x"});
    ar.add_row({"decoded-line pipeline register (7b)", Table::num(line_ff_um2, 0), "1x"});
    ar.print();
    std::printf("\n(paper: 'a decoded address pipeline register is 2.3 times smaller than\n"
                "the normal address decoder')\n");

    ctx.json.metric("decode ops reduction", reduction);
    ctx.json.metric("decoder vs line-register um2 ratio", decoder_um2 / line_ff_um2);
    return 0;
      });
}
