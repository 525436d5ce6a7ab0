#include <gtest/gtest.h>

#include <set>

#include "bist/bist.h"
#include "core/vscrub.h"
#include "designs/test_designs.h"
#include "pnr/pnr.h"

namespace vscrub {
namespace {

TEST(WireTest, CleanFabricPassesWithPaperOperationCounts) {
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8));
  FabricSim fabric(space);
  const auto r = run_wire_test(space, fabric);
  EXPECT_TRUE(r.pass());
  // Paper §II-B: twenty partial reconfigurations and 40 readbacks test the
  // 80 OMUX wires of each CLB. (The initial load of the test design is a
  // full configuration; 19 walk steps follow — we count the initial load as
  // the 20th reconfiguration.)
  EXPECT_EQ(r.partial_reconfigs + 1, kOmuxWiresPerDir);
  EXPECT_EQ(r.readbacks, 2 * kOmuxWiresPerDir);
}

TEST(WireTest, DetectsAndIsolatesStuckAtOne) {
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8));
  FabricSim fabric(space);
  FabricSim::PermanentFault fault;
  fault.kind = FabricSim::StuckKind::kWireStuck1;
  fault.tile = TileCoord{3, 4};
  fault.dir = Dir::kEast;
  fault.windex = 7;
  fabric.inject_permanent_fault(fault);

  const auto r = run_wire_test(space, fabric);
  ASSERT_FALSE(r.pass());
  // The first finding appears when wire 7 is under test, at the receiving
  // neighbor of the faulted tile, on the east chain (site 1 == kEast).
  bool isolated = false;
  for (const auto& f : r.findings) {
    if (f.windex == 7 && f.tile == TileCoord{3, 5} &&
        f.site == static_cast<u8>(Dir::kEast)) {
      isolated = true;
      EXPECT_TRUE(f.stuck_at_one);
      break;
    }
  }
  EXPECT_TRUE(isolated) << "fault not isolated to the faulted wire/tile";
  // No findings while other wires were under test... the fault is specific.
  for (const auto& f : r.findings) EXPECT_EQ(f.windex, 7) << "false alarm";
}

TEST(WireTest, DetectsStuckAtZeroOnSecondStep) {
  auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8));
  FabricSim fabric(space);
  FabricSim::PermanentFault fault;
  fault.kind = FabricSim::StuckKind::kWireStuck0;
  fault.tile = TileCoord{2, 2};
  fault.dir = Dir::kSouth;
  fault.windex = 3;
  fabric.inject_permanent_fault(fault);

  const auto r = run_wire_test(space, fabric);
  ASSERT_FALSE(r.pass());
  bool found_stuck0 = false;
  for (const auto& f : r.findings) {
    if (f.windex == 3 && !f.stuck_at_one) found_stuck0 = true;
  }
  EXPECT_TRUE(found_stuck0);
}

TEST(WireTest, DetectsFaultsInEveryDirection) {
  for (int d = 0; d < kDirs; ++d) {
    auto space = std::make_shared<const ConfigSpace>(device_tiny(8, 8));
    FabricSim fabric(space);
    FabricSim::PermanentFault fault;
    fault.kind = FabricSim::StuckKind::kWireStuck1;
    fault.tile = TileCoord{4, 4};
    fault.dir = static_cast<Dir>(d);
    fault.windex = 11;
    fabric.inject_permanent_fault(fault);
    const auto r = run_wire_test(space, fabric);
    EXPECT_FALSE(r.pass()) << "direction " << d;
  }
}

TEST(ClbBist, CleanPatternReportsNoError) {
  const auto pattern = compile(bist_clb_cascade(6, 20), device_tiny(12, 12));
  FabricSim fabric(pattern.space);
  fabric.full_configure(pattern.bitstream);
  const auto r = run_clb_bist(pattern, fabric, 300);
  EXPECT_FALSE(r.error_detected);
  EXPECT_GT(r.slice_coverage, 0.3);
}

TEST(ClbBist, DetectsStuckOutputInCascade) {
  const auto pattern = compile(bist_clb_cascade(6, 20), device_tiny(12, 12));
  FabricSim fabric(pattern.space);
  fabric.full_configure(pattern.bitstream);
  // Stick the registered output of a used site: pick a routed net's source.
  ASSERT_FALSE(pattern.routed_nets.empty());
  int detected = 0, tried = 0;
  for (const RoutedNet& net : pattern.routed_nets) {
    if (net.wires.empty() || tried >= 8) continue;
    ++tried;
    fabric.full_configure(pattern.bitstream);
    fabric.clear_permanent_faults();
    FabricSim::PermanentFault fault;
    fault.kind = FabricSim::StuckKind::kWireStuck1;
    fault.tile = net.wires[0].tile;
    fault.dir = net.wires[0].dir;
    fault.windex = net.wires[0].windex;
    fabric.inject_permanent_fault(fault);
    const auto r = run_clb_bist(pattern, fabric, 300);
    if (r.error_detected) ++detected;
  }
  EXPECT_GE(detected, tried / 2) << "BIST missed too many injected faults";
}

TEST(ClbBist, WorkbenchBistRunsTheLoadedPattern) {
  // Workbench::bist compiles the same cascade onto its device and must load
  // it before the run: on a blank fabric the outputs stay 0 and every fault
  // passes unseen.
  const Workbench bench(device_tiny(12, 12));
  EXPECT_FALSE(bench.bist().clb.error_detected);
  const PlacedDesign pattern = bench.compile(bist_clb_cascade(6, 20));
  int detected = 0, tried = 0;
  for (const RoutedNet& net : pattern.routed_nets) {
    if (net.wires.empty() || tried >= 8) continue;
    ++tried;
    FabricSim::PermanentFault fault;
    fault.kind = FabricSim::StuckKind::kWireStuck1;
    fault.tile = net.wires[0].tile;
    fault.dir = net.wires[0].dir;
    fault.windex = net.wires[0].windex;
    if (bench.bist({fault}, 300).clb.error_detected) ++detected;
  }
  ASSERT_GT(tried, 0);
  EXPECT_GE(detected, tried / 2) << "Workbench BIST missed injected faults";
}

TEST(ClbBist, ComplementaryPatternsIncreaseCoverage) {
  // Two placements (the paper's complementary design pair) cover more
  // slices together than either alone.
  PnrOptions o1;
  o1.seed = 1;
  PnrOptions o2;
  o2.seed = 12345;
  const auto p1 = compile(std::make_shared<const Netlist>(bist_clb_cascade(6, 20)),
                          std::make_shared<const ConfigSpace>(device_tiny(12, 12)), o1);
  const auto p2 = compile(std::make_shared<const Netlist>(bist_clb_cascade(6, 20)),
                          std::make_shared<const ConfigSpace>(device_tiny(12, 12)), o2);
  // Union coverage over slices.
  std::set<std::pair<u32, u8>> used;
  auto collect = [&](const PlacedDesign& p) {
    for (const RoutedNet& net : p.routed_nets) {
      for (const RoutedWire& rw : net.wires) {
        used.insert({p.space->geometry().tile_index(rw.tile), 0});
      }
    }
  };
  collect(p1);
  const std::size_t solo = used.size();
  collect(p2);
  EXPECT_GE(used.size(), solo);
}

TEST(BramBist, CleanRamPasses) {
  const auto checker = compile(designs::bram_selftest(2), device_tiny(8, 8, 2));
  FabricSim fabric(checker.space);
  fabric.full_configure(checker.bitstream);
  const auto r = run_bram_bist(checker, fabric, 300);
  EXPECT_FALSE(r.error_detected);
}

TEST(BramBist, DetectsContentCorruption) {
  const auto checker = compile(designs::bram_selftest(1), device_tiny(8, 8, 2));
  FabricSim fabric(checker.space);
  fabric.full_configure(checker.bitstream);
  // Corrupt a content bit of the bound block at an address the counter will
  // visit: the address-in-data pattern breaks there.
  ASSERT_FALSE(checker.brams.empty());
  const auto& binding = checker.brams[0];
  BitAddress addr;
  addr.frame = FrameAddress{ColumnKind::kBram, binding.bram_col,
                            static_cast<u16>((20 * kBramWidth + 3) / 64)};
  addr.offset = static_cast<u32>(binding.block) * 64 +
                static_cast<u32>((20 * kBramWidth + 3) % 64);
  fabric.flip_config_bit(addr);
  const auto r = run_bram_bist(checker, fabric, 300);
  EXPECT_TRUE(r.error_detected);
  EXPECT_GT(r.cycles_to_detect, 15u);  // found when address 20 is read
  EXPECT_LT(r.cycles_to_detect, 30u);
}

}  // namespace
}  // namespace vscrub
