// Device descriptions for the simulated OpenCL runtime.
//
// Each DeviceSpec carries the paper's Table I columns plus the
// architectural quantities the performance model needs (SIMD width,
// register file, preferred vector widths, barrier cost class). The six
// evaluation processors — and the Cypress GPU used in the Section IV-C
// comparison — are available from the registry in device_registry.hpp.
#pragma once

#include <cstdint>
#include <string>

namespace gemmtune::simcl {

/// Coarse device class; drives defaults in the performance model.
enum class DeviceType { GPU, CPU };

/// Where OpenCL local memory lives (Table I "Local memory type").
enum class LocalMemKind {
  Scratchpad,  ///< dedicated on-chip memory (all four GPUs)
  Global       ///< emulated in cache/DRAM (both CPUs)
};

/// Full description of a simulated OpenCL device.
///
/// Fields in the first block are verbatim Table I entries; the second block
/// holds architectural values the paper does not tabulate but that its
/// analysis references (SIMD width, registers, boost), with sources noted
/// in device_registry.cpp.
struct DeviceSpec {
  // --- Table I ---
  std::string code_name;           ///< e.g. "Tahiti"
  std::string product_name;        ///< e.g. "Radeon HD 7970"
  DeviceType type = DeviceType::GPU;
  double clock_ghz = 0;            ///< core clock
  int compute_units = 0;           ///< CUs (GPU) or cores (CPU)
  int dp_ops_per_clock = 0;        ///< device-wide DP flops per clock
  int sp_ops_per_clock = 0;        ///< device-wide SP flops per clock
  double peak_dp_gflops = 0;       ///< listed peak, double precision
  double peak_sp_gflops = 0;       ///< listed peak, single precision
  double global_mem_gb = 0;        ///< device memory capacity
  double global_bw_gbs = 0;        ///< peak global-memory bandwidth
  double l3_cache_mb = 0;          ///< 0 when absent
  double l2_cache_kb = 0;          ///< per processor (GPU) / per core or module (CPU)
  double l1_cache_kb = 0;          ///< per compute unit / core
  double local_mem_kb = 0;         ///< OpenCL local memory per compute unit
  LocalMemKind local_mem_kind = LocalMemKind::Scratchpad;
  std::string opencl_sdk;          ///< Table I "OpenCL SDK"
  std::string driver;              ///< Table I driver version

  // --- architectural values used by the performance model ---
  int simd_width = 0;              ///< wavefront/warp/vector-lane width
  int max_workgroup_size = 256;    ///< CL_DEVICE_MAX_WORK_GROUP_SIZE
  double registers_per_cu_kb = 0;  ///< register file per compute unit
  double boost_factor = 1.0;       ///< dynamic clock boost (Kepler GTX 670 OC)
  double host_bw_gbs = 6.0;        ///< host<->device transfer bandwidth
  double kernel_launch_us = 8.0;   ///< fixed launch overhead

  /// Peak arithmetic rate for the given element width (8 => DP, 4 => SP),
  /// including boost.
  double peak_gflops(bool double_precision) const {
    return (double_precision ? peak_dp_gflops : peak_sp_gflops) *
           boost_factor;
  }

  /// Local memory capacity per compute unit in bytes.
  double local_mem_bytes() const { return local_mem_kb * 1024.0; }

  /// Register file per compute unit in bytes.
  double register_bytes_per_cu() const { return registers_per_cu_kb * 1024.0; }

  bool is_gpu() const { return type == DeviceType::GPU; }
};

}  // namespace gemmtune::simcl
