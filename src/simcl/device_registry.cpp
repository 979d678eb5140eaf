#include "simcl/device_registry.hpp"

#include <array>

#include "common/error.hpp"

namespace gemmtune::simcl {

namespace {

// Table I of the paper, plus architectural values the paper's analysis
// relies on but does not tabulate:
//  * simd_width: GCN/VLIW wavefront = 64, NVIDIA warp = 32, AVX/FMA lanes
//    on CPUs (8 SP lanes on Sandy Bridge AVX, 8 on Bulldozer FMA4).
//  * registers_per_cu_kb: GCN CU = 256 KB vector registers; Cayman VLIW4
//    SIMD = 256 KB; Fermi SM = 128 KB (32768 x 4 B); Kepler SMX = 256 KB
//    (65536 x 4 B); CPUs: 16 YMM registers = 0.5 KB (per core).
//  * boost_factor: the GTX 670 card is overclocked and boosts above the
//    listed clock — the paper notes measured performance may exceed the
//    listed peak (Table II reports 105% DGEMM efficiency).
//  * host_bw_gbs: PCIe 2.0/3.0-era effective transfer rates; CPUs copy
//    within system memory.
//  * CPU global_bw_gbs is not in Table I: Sandy Bridge-E has quad-channel
//    DDR3-1600 (51.2 GB/s), the FX-8150 dual-channel DDR3-1866 (29.9 GB/s
//    listed, ~21 sustained).
DeviceSpec make_tahiti() {
  DeviceSpec d;
  d.code_name = "Tahiti";
  d.product_name = "Radeon HD 7970";
  d.type = DeviceType::GPU;
  d.clock_ghz = 0.925;
  d.compute_units = 32;
  d.dp_ops_per_clock = 1024;
  d.sp_ops_per_clock = 4096;
  d.peak_dp_gflops = 947;
  d.peak_sp_gflops = 3789;
  d.global_mem_gb = 3;
  d.global_bw_gbs = 264;
  d.l3_cache_mb = 0;
  d.l2_cache_kb = 768;
  d.l1_cache_kb = 16;
  d.local_mem_kb = 64;
  d.local_mem_kind = LocalMemKind::Scratchpad;
  d.opencl_sdk = "AMD APP 2.6";
  d.driver = "Catalyst 12.3";
  d.simd_width = 64;
  d.max_workgroup_size = 256;
  d.registers_per_cu_kb = 256;
  d.host_bw_gbs = 6.0;
  d.kernel_launch_us = 8.0;
  return d;
}

DeviceSpec make_cayman() {
  DeviceSpec d;
  d.code_name = "Cayman";
  d.product_name = "Radeon HD 6970";
  d.type = DeviceType::GPU;
  d.clock_ghz = 0.88;
  d.compute_units = 24;
  d.dp_ops_per_clock = 768;
  d.sp_ops_per_clock = 3072;
  d.peak_dp_gflops = 676;
  d.peak_sp_gflops = 2703;
  d.global_mem_gb = 1;
  d.global_bw_gbs = 176;
  d.l3_cache_mb = 0;
  d.l2_cache_kb = 512;
  d.l1_cache_kb = 8;
  d.local_mem_kb = 32;
  d.local_mem_kind = LocalMemKind::Scratchpad;
  d.opencl_sdk = "AMD APP 2.6";
  d.driver = "Catalyst 11.11";
  d.simd_width = 64;
  d.max_workgroup_size = 256;
  d.registers_per_cu_kb = 256;
  d.host_bw_gbs = 5.5;
  d.kernel_launch_us = 10.0;
  return d;
}

DeviceSpec make_kepler() {
  DeviceSpec d;
  d.code_name = "Kepler";
  d.product_name = "GeForce GTX 670 OC";
  d.type = DeviceType::GPU;
  d.clock_ghz = 1.085;
  d.compute_units = 7;
  d.dp_ops_per_clock = 112;  // 7 SMX x 8 FP64 units x 2 flops
  d.sp_ops_per_clock = 2688;
  d.peak_dp_gflops = 122;
  d.peak_sp_gflops = 2916;
  d.global_mem_gb = 2;
  d.global_bw_gbs = 192;
  d.l3_cache_mb = 0;
  d.l2_cache_kb = 512;
  d.l1_cache_kb = 16;
  d.local_mem_kb = 48;
  d.local_mem_kind = LocalMemKind::Scratchpad;
  d.opencl_sdk = "CUDA 5.0 RC";
  d.driver = "304.33";
  d.simd_width = 32;
  d.max_workgroup_size = 1024;
  d.registers_per_cu_kb = 256;
  d.boost_factor = 1.12;  // overclocked card boosts past the listed clock
                          // (Table II reports 105% DGEMM efficiency)
  d.host_bw_gbs = 6.0;
  d.kernel_launch_us = 6.0;
  return d;
}

DeviceSpec make_fermi() {
  DeviceSpec d;
  d.code_name = "Fermi";
  d.product_name = "Tesla M2090";
  d.type = DeviceType::GPU;
  d.clock_ghz = 1.3;
  d.compute_units = 16;
  d.dp_ops_per_clock = 512;
  d.sp_ops_per_clock = 1024;
  d.peak_dp_gflops = 665;
  d.peak_sp_gflops = 1331;
  d.global_mem_gb = 6;
  d.global_bw_gbs = 177;
  d.l3_cache_mb = 0;
  d.l2_cache_kb = 768;
  d.l1_cache_kb = 16;
  d.local_mem_kb = 48;
  d.local_mem_kind = LocalMemKind::Scratchpad;
  d.opencl_sdk = "CUDA 4.1.28";
  d.driver = "285.05";
  d.simd_width = 32;
  d.max_workgroup_size = 1024;
  d.registers_per_cu_kb = 128;
  d.host_bw_gbs = 5.8;
  d.kernel_launch_us = 7.0;
  return d;
}

DeviceSpec make_sandy_bridge() {
  DeviceSpec d;
  d.code_name = "Sandy Bridge";
  d.product_name = "Core i7 3960X";
  d.type = DeviceType::CPU;
  d.clock_ghz = 3.3;
  d.compute_units = 6;
  d.dp_ops_per_clock = 48;
  d.sp_ops_per_clock = 96;
  d.peak_dp_gflops = 158.4;
  d.peak_sp_gflops = 316.8;
  d.global_mem_gb = 16;
  d.global_bw_gbs = 51.2;
  d.l3_cache_mb = 15;
  d.l2_cache_kb = 256;
  d.l1_cache_kb = 32;
  d.local_mem_kb = 32;
  d.local_mem_kind = LocalMemKind::Global;
  d.opencl_sdk = "Intel 2013 beta";
  d.driver = "";
  d.simd_width = 8;
  d.max_workgroup_size = 1024;
  d.registers_per_cu_kb = 0.5;
  d.host_bw_gbs = 12.0;
  d.kernel_launch_us = 25.0;
  return d;
}

DeviceSpec make_bulldozer() {
  DeviceSpec d;
  d.code_name = "Bulldozer";
  d.product_name = "FX-8150";
  d.type = DeviceType::CPU;
  d.clock_ghz = 3.6;
  d.compute_units = 8;
  d.dp_ops_per_clock = 32;
  d.sp_ops_per_clock = 64;
  d.peak_dp_gflops = 115.2;
  d.peak_sp_gflops = 230.4;
  d.global_mem_gb = 8;
  d.global_bw_gbs = 21.3;
  d.l3_cache_mb = 8;
  d.l2_cache_kb = 2048;  // per two-core module
  d.l1_cache_kb = 16;
  d.local_mem_kb = 32;
  d.local_mem_kind = LocalMemKind::Global;
  d.opencl_sdk = "AMD APP 2.7";
  d.driver = "";
  d.simd_width = 8;
  d.max_workgroup_size = 1024;
  d.registers_per_cu_kb = 0.5;
  d.host_bw_gbs = 9.0;
  d.kernel_launch_us = 30.0;
  return d;
}

// Cypress (Radeon HD 5870) is not in Table I; Section IV-C compares our
// auto-tuned DGEMM (495 GFlop/s) with Nakasato's IL kernel (498, 92%
// efficiency) and Du et al. (308, 57%). Specs are the public HD 5870 values.
DeviceSpec make_cypress() {
  DeviceSpec d;
  d.code_name = "Cypress";
  d.product_name = "Radeon HD 5870";
  d.type = DeviceType::GPU;
  d.clock_ghz = 0.85;
  d.compute_units = 20;
  d.dp_ops_per_clock = 640;
  d.sp_ops_per_clock = 3200;
  d.peak_dp_gflops = 544;
  d.peak_sp_gflops = 2720;
  d.global_mem_gb = 1;
  d.global_bw_gbs = 153.6;
  d.l3_cache_mb = 0;
  d.l2_cache_kb = 512;
  d.l1_cache_kb = 8;
  d.local_mem_kb = 32;
  d.local_mem_kind = LocalMemKind::Scratchpad;
  d.opencl_sdk = "AMD APP 2.5";
  d.driver = "";
  d.simd_width = 64;
  d.max_workgroup_size = 256;
  d.registers_per_cu_kb = 256;
  d.host_bw_gbs = 5.0;
  d.kernel_launch_us = 10.0;
  return d;
}

const std::array<DeviceSpec, 7>& registry() {
  static const std::array<DeviceSpec, 7> specs = {
      make_tahiti(),       make_cayman(),    make_kepler(), make_fermi(),
      make_sandy_bridge(), make_bulldozer(), make_cypress()};
  return specs;
}

}  // namespace

std::vector<DeviceId> evaluation_devices() {
  return {DeviceId::Tahiti, DeviceId::Cayman,      DeviceId::Kepler,
          DeviceId::Fermi,  DeviceId::SandyBridge, DeviceId::Bulldozer};
}

std::vector<DeviceId> all_devices() {
  auto v = evaluation_devices();
  v.push_back(DeviceId::Cypress);
  return v;
}

const DeviceSpec& device_spec(DeviceId id) {
  return registry()[static_cast<std::size_t>(id)];
}

DeviceId device_by_name(const std::string& code_name) {
  // Exact match first; then a space-free alias ("SandyBridge"), which
  // spec strings like serve's "devices=Tahiti+SandyBridge" need because
  // their separators cannot carry a quoted space.
  const auto strip = [](const std::string& s) {
    std::string out;
    for (char c : s)
      if (c != ' ') out.push_back(c);
    return out;
  };
  for (DeviceId id : all_devices()) {
    if (device_spec(id).code_name == code_name) return id;
  }
  for (DeviceId id : all_devices()) {
    if (strip(device_spec(id).code_name) == strip(code_name)) return id;
  }
  fail("unknown device '" + code_name + "'");
}

std::string to_string(DeviceId id) { return device_spec(id).code_name; }

}  // namespace gemmtune::simcl
