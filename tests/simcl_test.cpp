// SimCL runtime tests: the Table I device registry and the simulated
// context / buffer / command-queue behaviour.
#include <gtest/gtest.h>

#include "simcl/device_registry.hpp"
#include "simcl/runtime.hpp"

namespace gemmtune::simcl {
namespace {

TEST(DeviceRegistry, HasTheSixEvaluationProcessorsPlusCypress) {
  EXPECT_EQ(evaluation_devices().size(), 6u);
  EXPECT_EQ(all_devices().size(), 7u);
  for (DeviceId id : all_devices()) {
    const DeviceSpec& d = device_spec(id);
    EXPECT_FALSE(d.code_name.empty());
    EXPECT_GT(d.clock_ghz, 0);
    EXPECT_GT(d.compute_units, 0);
    EXPECT_GT(d.peak_dp_gflops, 0);
    EXPECT_GT(d.peak_sp_gflops, d.peak_dp_gflops);
    EXPECT_GT(d.global_bw_gbs, 0);
    EXPECT_GT(d.local_mem_kb, 0);
    EXPECT_GT(d.simd_width, 0);
    EXPECT_EQ(device_by_name(d.code_name), id);
  }
  EXPECT_THROW(device_by_name("VoodooFX"), Error);
}

TEST(DeviceRegistry, TableIValues) {
  // Spot-check Table I numbers.
  const DeviceSpec& tahiti = device_spec(DeviceId::Tahiti);
  EXPECT_DOUBLE_EQ(tahiti.clock_ghz, 0.925);
  EXPECT_EQ(tahiti.compute_units, 32);
  EXPECT_EQ(tahiti.dp_ops_per_clock, 1024);
  EXPECT_DOUBLE_EQ(tahiti.peak_dp_gflops, 947);
  EXPECT_DOUBLE_EQ(tahiti.peak_sp_gflops, 3789);
  EXPECT_DOUBLE_EQ(tahiti.global_bw_gbs, 264);
  EXPECT_EQ(tahiti.local_mem_kind, LocalMemKind::Scratchpad);

  const DeviceSpec& sb = device_spec(DeviceId::SandyBridge);
  EXPECT_EQ(sb.type, DeviceType::CPU);
  EXPECT_DOUBLE_EQ(sb.peak_dp_gflops, 158.4);
  EXPECT_DOUBLE_EQ(sb.peak_sp_gflops, 316.8);
  EXPECT_EQ(sb.local_mem_kind, LocalMemKind::Global);

  const DeviceSpec& bd = device_spec(DeviceId::Bulldozer);
  EXPECT_DOUBLE_EQ(bd.peak_dp_gflops, 115.2);
  EXPECT_EQ(bd.compute_units, 8);
}

TEST(DeviceRegistry, PeaksAreConsistentWithClockAndWidth) {
  // peak ~= clock * ops_per_clock for every listed processor (Table I is
  // self-consistent; small rounding allowed).
  for (DeviceId id : all_devices()) {
    const DeviceSpec& d = device_spec(id);
    EXPECT_NEAR(d.clock_ghz * d.dp_ops_per_clock, d.peak_dp_gflops,
                0.03 * d.peak_dp_gflops)
        << d.code_name;
    EXPECT_NEAR(d.clock_ghz * d.sp_ops_per_clock, d.peak_sp_gflops,
                0.08 * d.peak_sp_gflops)
        << d.code_name;
  }
}

TEST(DeviceRegistry, EveryDeviceHasAHostLink) {
  for (DeviceId id : all_devices())
    EXPECT_GT(device_spec(id).host_bw_gbs, 0) << device_spec(id).code_name;
}

TEST(Context, AllocatesAndTracksBuffers) {
  Context ctx(device_spec(DeviceId::Cayman));  // 1 GB device
  auto b = ctx.create_buffer(1024);
  EXPECT_EQ(b->size(), 1024u);
  EXPECT_EQ(ctx.allocated_bytes(), 1024u);
  // Buffers are zero-initialized.
  for (std::size_t i = 0; i < 1024; ++i)
    EXPECT_EQ(b->data()[i], std::byte{0});
  EXPECT_THROW(ctx.create_buffer(0), Error);
}

TEST(Context, EnforcesGlobalMemoryCapacity) {
  Context ctx(device_spec(DeviceId::Cayman));  // 1 GB
  (void)ctx.create_buffer(800u << 20);
  EXPECT_THROW(ctx.create_buffer(300u << 20), Error);
}

TEST(Queue, TransfersMoveDataAndAdvanceTime) {
  Context ctx(device_spec(DeviceId::Tahiti));
  CommandQueue q(ctx);
  auto buf = ctx.create_buffer(64);
  const double payload[4] = {1, 2, 3, 4};
  q.enqueue_write(*buf, payload, sizeof(payload));
  EXPECT_GT(q.elapsed_seconds(), 0);
  double out[4] = {};
  q.enqueue_read(*buf, out, sizeof(out));
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(q.events().size(), 2u);
  EXPECT_EQ(q.events()[0].name, "write");
  EXPECT_EQ(q.events()[0].bytes, sizeof(payload));
  EXPECT_THROW(q.enqueue_write(*buf, payload, 128), Error);
}

TEST(Queue, KernelEventsAccumulate) {
  Context ctx(device_spec(DeviceId::Fermi));
  CommandQueue q(ctx);
  q.enqueue_kernel("dgemm", 0.25, 100.0);
  q.enqueue_kernel("dgemm", 0.25, 100.0);
  EXPECT_DOUBLE_EQ(q.finish(), 0.5);
  EXPECT_EQ(q.events().size(), 2u);
  EXPECT_THROW(q.enqueue_kernel("bad", -1.0, 0.0), Error);
  q.reset();
  EXPECT_DOUBLE_EQ(q.elapsed_seconds(), 0.0);
  EXPECT_TRUE(q.events().empty());
}

TEST(Queue, CopyMovesWithinDevice) {
  Context ctx(device_spec(DeviceId::Tahiti));
  CommandQueue q(ctx);
  auto a = ctx.create_buffer(16);
  auto b = ctx.create_buffer(16);
  a->as<std::uint32_t>()[0] = 0xDEADBEEF;
  q.enqueue_copy(*a, *b, 16);
  EXPECT_EQ(b->as<std::uint32_t>()[0], 0xDEADBEEF);
}

}  // namespace
}  // namespace gemmtune::simcl
