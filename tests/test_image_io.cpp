#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bitstream/record_io.h"
#include "core/vscrub.h"

namespace vscrub {
namespace {

std::string temp_path(const char* name) {
  return std::string("/tmp/vscrub_test_") + name + ".vsb";
}

TEST(ImageIo, RoundTripPreservesEveryFrame) {
  const auto design = compile(designs::counter_adder(10), device_tiny(8, 12, 2));
  const std::string path = temp_path("roundtrip");
  save_bitstream(design.bitstream, path);
  const LoadedImage loaded = load_bitstream(path);
  EXPECT_EQ(loaded.geometry.rows, 8);
  EXPECT_EQ(loaded.geometry.cols, 12);
  EXPECT_EQ(loaded.geometry.bram_columns, 2);
  ASSERT_EQ(loaded.bits.frame_count(), design.bitstream.frame_count());
  for (u32 gf = 0; gf < loaded.bits.frame_count(); ++gf) {
    EXPECT_EQ(loaded.bits.frame(gf), design.bitstream.frame(gf)) << gf;
  }
  std::remove(path.c_str());
}

TEST(ImageIo, LoadedImageRunsIdentically) {
  const auto design = compile(designs::lfsr_multiplier(8), device_tiny(8, 12));
  const std::string path = temp_path("run");
  save_bitstream(design.bitstream, path);
  const Bitstream loaded = load_bitstream(design.space, path);
  FabricSim fabric(design.space);
  fabric.full_configure(loaded);
  DesignHarness harness(design, fabric);
  harness.restart();
  const auto golden = DesignHarness::reference_trace(*design.netlist, 80);
  for (int t = 0; t < 80; ++t) {
    harness.step();
    ASSERT_EQ(harness.last_outputs(), golden[static_cast<std::size_t>(t)]);
  }
  std::remove(path.c_str());
}

TEST(ImageIo, RejectsCorruptedFile) {
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  const std::string path = temp_path("corrupt");
  save_bitstream(design.bitstream, path);
  // Flip one byte in the middle of the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_THROW(load_bitstream(path), Error);
  std::remove(path.c_str());
}

TEST(ImageIo, RejectsGeometryMismatch) {
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  const std::string path = temp_path("mismatch");
  save_bitstream(design.bitstream, path);
  auto other = std::make_shared<const ConfigSpace>(device_tiny(8, 12));
  EXPECT_THROW(load_bitstream(other, path), Error);
  std::remove(path.c_str());
}

TEST(ImageIo, RejectsBadMagic) {
  const std::string path = temp_path("magic");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a bitstream image at all, sorry", f);
  std::fclose(f);
  EXPECT_THROW(load_bitstream(path), Error);
  std::remove(path.c_str());
}

TEST(RecordIo, ConcurrentWritersOfOnePathEachLandAWholeRecord) {
  // Two campaigns publishing the same manifest, or two daemons sharing a
  // cache directory, write one path at once. Every write must succeed, and
  // the survivor must be one writer's complete record.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "vscrub_record_race";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "shared.vsmf").string();
  constexpr u32 kWriters = 8;
  constexpr u32 kWritesEach = 40;
  constexpr std::size_t kPayload = 64 * 1024;
  const auto fill = [](u32 writer, u32 seq) {
    return static_cast<u8>(writer * 31 + seq);
  };

  std::atomic<u32> ready{0};
  std::atomic<u32> failures{0};
  std::vector<std::thread> writers;
  for (u32 w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      for (u32 seq = 0; seq < kWritesEach; ++seq) {
        RecordWriter record("RACE1");
        record.put_u32(w);
        record.put_u32(seq);
        const std::vector<u8> payload(kPayload, fill(w, seq));
        record.put_bytes(payload.data(), payload.size());
        try {
          record.write(path);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0u);

  RecordReader reader(path, "RACE1");  // throws on a torn or mixed record
  const u32 writer = reader.get_u32();
  const u32 seq = reader.get_u32();
  EXPECT_LT(writer, kWriters);
  EXPECT_LT(seq, kWritesEach);
  ASSERT_EQ(reader.remaining(), kPayload);
  std::vector<u8> payload(kPayload);
  reader.get_bytes(payload.data(), payload.size());
  EXPECT_EQ(payload, std::vector<u8>(kPayload, fill(writer, seq)));
  // No writer left a temp file behind.
  const auto entries = std::distance(std::filesystem::directory_iterator(dir),
                                     std::filesystem::directory_iterator());
  EXPECT_EQ(entries, 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vscrub
