// The load-bearing integration tests: a compiled design running on the
// fabric simulator must match the netlist reference simulator cycle for
// cycle — that equivalence is what makes configuration-level fault injection
// meaningful.
#include <gtest/gtest.h>

#include <memory>

#include "designs/test_designs.h"
#include "netlist/builder.h"
#include "pnr/pnr.h"
#include "sim/harness.h"
#include "svc/requests.h"

namespace vscrub {
namespace {

struct CompiledFixture {
  PlacedDesign design;
  std::unique_ptr<FabricSim> sim;
  std::unique_ptr<DesignHarness> harness;

  explicit CompiledFixture(Netlist nl, DeviceGeometry geom,
                           PnrOptions options = {})
      : design(compile(std::move(nl), geom, options)) {
    sim = std::make_unique<FabricSim>(design.space);
    harness = std::make_unique<DesignHarness>(design, *sim);
    harness->configure();
  }
};

void expect_equivalent(CompiledFixture& fx, std::size_t cycles,
                       std::size_t warmup = 0) {
  const auto golden =
      DesignHarness::reference_trace(*fx.design.netlist, cycles);
  fx.harness->restart();
  for (std::size_t t = 0; t < cycles; ++t) {
    fx.harness->step();
    if (t < warmup) continue;
    ASSERT_EQ(fx.harness->last_outputs(), golden[t])
        << fx.design.netlist->name() << " diverges at cycle " << t;
  }
  ASSERT_FALSE(fx.sim->oscillating());
}

TEST(PnrSim, CounterEquivalence) {
  CompiledFixture fx(designs::counter_adder(8), device_tiny(8, 8));
  expect_equivalent(fx, 100);
}

TEST(PnrSim, MultTreeEquivalence) {
  CompiledFixture fx(designs::mult_tree(8), device_tiny(12, 12));
  expect_equivalent(fx, 100);
}

TEST(PnrSim, VmultEquivalence) {
  CompiledFixture fx(designs::vmult(8), device_tiny(12, 12));
  expect_equivalent(fx, 100);
}

TEST(PnrSim, LfsrClusterEquivalence) {
  CompiledFixture fx(designs::lfsr_cluster(1), device_tiny(12, 12));
  expect_equivalent(fx, 200);
}

TEST(PnrSim, LfsrMultiplierEquivalence) {
  CompiledFixture fx(designs::lfsr_multiplier(6), device_tiny(12, 12));
  expect_equivalent(fx, 150);
}

TEST(PnrSim, MultiplyAddEquivalence) {
  CompiledFixture fx(designs::multiply_add(6), device_tiny(12, 12));
  expect_equivalent(fx, 100);
}

TEST(PnrSim, FirPreprocEquivalence) {
  CompiledFixture fx(designs::fir_preproc(3, 4), device_tiny(12, 12));
  expect_equivalent(fx, 120);
}

TEST(PnrSim, BramSelftestEquivalence) {
  CompiledFixture fx(designs::bram_selftest(1), device_tiny(8, 8, 2));
  expect_equivalent(fx, 80);
}

TEST(PnrSim, RadDrcLutRomPolicyEquivalence) {
  PnrOptions options;
  options.halflatch_policy = HalfLatchPolicy::kLutRomConstants;
  CompiledFixture fx(designs::lfsr_cluster(1), device_tiny(12, 12), options);
  expect_equivalent(fx, 150);
  // RadDRC removes every *critical* half-latch dependency.
  for (const auto& use : fx.design.halflatch_uses) {
    EXPECT_FALSE(use.critical);
  }
}

TEST(PnrSim, RadDrcExternalPolicyEquivalence) {
  PnrOptions options;
  options.halflatch_policy = HalfLatchPolicy::kExternalConstants;
  CompiledFixture fx(designs::counter_adder(8), device_tiny(8, 10), options);
  expect_equivalent(fx, 100);
  for (const auto& use : fx.design.halflatch_uses) {
    EXPECT_FALSE(use.critical);
  }
}

TEST(PnrSim, DefaultPolicyUsesCriticalHalfLatches) {
  CompiledFixture fx(designs::lfsr_cluster(1), device_tiny(12, 12));
  std::size_t critical = 0;
  for (const auto& use : fx.design.halflatch_uses) critical += use.critical;
  // Every slice of the LFSR relies on half-latch CE/SR idle values.
  EXPECT_GT(critical, 10u);
}

TEST(PnrSim, ResetResynchronizesFfDesigns) {
  CompiledFixture fx(designs::counter_adder(8), device_tiny(8, 8));
  fx.harness->run(37);
  fx.harness->restart();
  const auto golden = DesignHarness::reference_trace(*fx.design.netlist, 50);
  for (std::size_t t = 0; t < 50; ++t) {
    fx.harness->step();
    ASSERT_EQ(fx.harness->last_outputs(), golden[t]) << "cycle " << t;
  }
}

TEST(PnrSim, SrlContentsSurviveResetButFlush) {
  // Reset does not clear SRL16 contents (it is a logic reset, not a
  // reconfiguration) — outputs re-converge once the delay lines flush.
  CompiledFixture fx(designs::fir_preproc(3, 4), device_tiny(12, 12));
  fx.harness->run(29);
  fx.harness->restart();
  const std::size_t cycles = 120;
  const auto golden = DesignHarness::reference_trace(*fx.design.netlist, cycles);
  std::size_t first_match = cycles;
  bool matched_tail = true;
  for (std::size_t t = 0; t < cycles; ++t) {
    fx.harness->step();
    const bool match = fx.harness->last_outputs() == golden[t];
    if (match && first_match == cycles) first_match = t;
    if (t >= 48 && !match) matched_tail = false;
  }
  EXPECT_TRUE(matched_tail) << "FIR did not re-converge after reset";
}

TEST(PnrSim, FullReconfigureRestoresExactState) {
  CompiledFixture fx(designs::fir_preproc(3, 4), device_tiny(12, 12));
  fx.harness->run(29);
  fx.harness->configure();  // full reconfiguration, startup sequence
  const auto golden = DesignHarness::reference_trace(*fx.design.netlist, 60);
  for (std::size_t t = 0; t < 60; ++t) {
    fx.harness->step();
    ASSERT_EQ(fx.harness->last_outputs(), golden[t]) << "cycle " << t;
  }
}

TEST(PnrSim, UtilizationReportedSanely) {
  CompiledFixture fx(designs::lfsr_cluster(2), device_tiny(16, 16));
  const auto& stats = fx.design.stats;
  EXPECT_GT(stats.slices_used, 100u);
  EXPECT_LE(stats.slices_used, fx.design.space->geometry().slice_count());
  EXPECT_GT(stats.wires_used, stats.slices_used);  // routing dominates
  EXPECT_GT(stats.utilization, 0.0);
  EXPECT_LT(stats.utilization, 1.0);
}

TEST(PnrSim, DeterministicCompile) {
  auto d1 = compile(designs::counter_adder(8), device_tiny(8, 8));
  auto d2 = compile(designs::counter_adder(8), device_tiny(8, 8));
  EXPECT_TRUE(d1.bitstream == d2.bitstream);
}

TEST(PnrSim, DesignTooBigThrows) {
  EXPECT_THROW(compile(designs::mult_tree(16), device_tiny(4, 4)), Error);
}

/// Every piece of FabricSim state a simulation or a gang engine reads.
void expect_same_fabric(const FabricSim& a, const FabricSim& b) {
  const u32 tiles = a.geometry().tile_count();
  for (u32 t = 0; t < tiles; ++t) {
    SCOPED_TRACE("tile " + std::to_string(t));
    const FabricSim::Tile& x = a.tile_state(t);
    const FabricSim::Tile& y = b.tile_state(t);
    for (int l = 0; l < kLutsPerClb; ++l) {
      EXPECT_EQ(x.lut_cells[l], y.lut_cells[l]);
      EXPECT_EQ(x.lut_mode[l], y.lut_mode[l]);
      EXPECT_EQ(x.lut_base_idx[l], y.lut_base_idx[l]);
      EXPECT_EQ(x.lut_dyn_mask[l], y.lut_dyn_mask[l]);
    }
    for (int p = 0; p < kImuxPins; ++p) {
      EXPECT_EQ(x.imux[p], y.imux[p]);
      EXPECT_EQ(a.pin_source(t, static_cast<u8>(p)),
                b.pin_source(t, static_cast<u8>(p)));
    }
    for (int w = 0; w < kWiresPerClb; ++w) {
      EXPECT_EQ(x.omux[w], y.omux[w]);
      EXPECT_EQ(a.wire_source(t, static_cast<u8>(w)),
                b.wire_source(t, static_cast<u8>(w)));
    }
    for (int f = 0; f < kFfsPerClb; ++f) {
      EXPECT_EQ(x.ff_init[f], y.ff_init[f]);
      EXPECT_EQ(x.ff_used[f], y.ff_used[f]);
      EXPECT_EQ(x.ff_byp[f], y.ff_byp[f]);
    }
    for (int sl = 0; sl < kSlicesPerClb; ++sl) {
      EXPECT_EQ(x.clk_en[sl], y.clk_en[sl]);
    }
    EXPECT_EQ(x.driven_wires, y.driven_wires);
    EXPECT_EQ(x.connected_pins, y.connected_pins);
    EXPECT_EQ(x.active, y.active);
    EXPECT_EQ(x.has_local_feedback, y.has_local_feedback);
    EXPECT_EQ(x.active_lut_mask, y.active_lut_mask);
    EXPECT_EQ(x.override_mask, y.override_mask);
    EXPECT_EQ(x.override_vals, y.override_vals);
  }
  EXPECT_EQ(a.wire_values(), b.wire_values());
  EXPECT_EQ(a.out_values(), b.out_values());
  EXPECT_EQ(a.ff_state_snapshot(), b.ff_state_snapshot());
  EXPECT_EQ(a.halflatch_values(), b.halflatch_values());
  EXPECT_EQ(a.dirty_frames(), b.dirty_frames());
  EXPECT_EQ(a.active_tile_count(), b.active_tile_count());
  EXPECT_EQ(a.oscillating(), b.oscillating());
  EXPECT_EQ(a.cycle_count(), b.cycle_count());
}

// The configured constructor decodes the golden bitstream once; the blank
// constructor plus full_configure() decodes every tile twice. Campaign
// engines use the first, so it must reach exactly the second's state, and
// run identically from it, for every named design.
TEST(PnrSim, ConfiguredConstructorMatchesBlankPlusFullConfigure) {
  for (const char* name : {"lfsr", "mult", "vmult", "counter", "multadd",
                           "lfsrmult", "fir", "selfcheck", "bram"}) {
    SCOPED_TRACE(name);
    // The campaign device has no BRAM columns; `bram` gets the same grid
    // with two.
    const char* device = std::string(name) == "bram" ? "tiny:12x16" : "campaign";
    const PlacedDesign design =
        compile(design_by_name(name), device_by_name(device));
    FabricSim twice(design.space);
    twice.full_configure(design.bitstream);
    FabricSim once(design.space, design.bitstream);
    expect_same_fabric(twice, once);

    DesignHarness twice_harness(design, twice);
    DesignHarness once_harness(design, once);
    twice_harness.restart();
    once_harness.restart();
    for (int cycle = 0; cycle < 72; ++cycle) {
      twice_harness.step();
      once_harness.step();
      ASSERT_EQ(twice_harness.last_outputs(), once_harness.last_outputs())
          << "cycle " << cycle;
    }
    expect_same_fabric(twice, once);
  }
}

}  // namespace
}  // namespace vscrub
