// Traced replay of GemmEngine::gemm: the same public layer calls the engine
// makes, in the same order, each wrapped in a span recorded here (the
// library itself gains no spans). The caller checks that the replayed C is
// bit-identical to the engine's.
#include <cstring>

#include "bench.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "simcl/runtime.hpp"
#include "tuner/shape.hpp"

namespace perfbench {

namespace gt = gemmtune;
namespace ir = gemmtune::ir;
using gt::codegen::DirectGemmKernelArgs;
using gt::codegen::GemmKernelArgs;
using gt::codegen::KernelParams;

namespace {

/// The warm program-cache lookup the launch path makes: the native object
/// for the native backend, the bytecode program otherwise.
void compile_lookup(const ir::Kernel& kernel) {
  if (ir::resolve_backend(ir::Backend::Auto) == ir::Backend::Native)
    ir::get_or_compile_native(kernel);
  else
    ir::get_or_compile(kernel);
}

template <typename T>
gt::simcl::BufferPtr upload(gt::simcl::Context& ctx, const T* data,
                            std::size_t n) {
  auto buf = ctx.create_buffer(n * sizeof(T));
  std::memcpy(buf->data(), data, n * sizeof(T));
  return buf;
}

void count(ReplayStats& st, const ir::Counters& c) {
  st.launch_flops += static_cast<double>(c.flops);
  st.launch_bytes +=
      static_cast<double>(c.global_load_bytes + c.global_store_bytes);
}

}  // namespace

template <typename T>
ReplayStats replay_gemm(Tracer& tr, int parent, const Request& r,
                        gt::blas::GemmEngine& engine, const Matrix<T>& A,
                        const Matrix<T>& B, Matrix<T>& C, bool verify) {
  const std::int64_t id = r.id;
  const Transpose ta = gt::trans_a(r.type), tb = gt::trans_b(r.type);
  const T alpha = static_cast<T>(r.alpha), beta = static_cast<T>(r.beta);
  ReplayStats st;
  Matrix<T> Cin;
  if (verify) Cin = C;

  const KernelParams p = engine.kernel_for(r.prec).params;
  gt::tuner::ShapeCost cost;
  {
    Scope s(&tr, "tuner.shape_cost", parent, id);
    cost = gt::tuner::shape_cost(engine.model(), p, r.M, r.N, r.K);
  }
  st.direct = cost.used_direct;
  const auto& spec = gt::simcl::device_spec(engine.device_id());

  if (st.direct) {
    const KernelParams q = gt::tuner::direct_variant(p);
    const bool guarded = direct_guarded(q, r);
    const gt::PackedExtents ext =
        gt::packed_extents(r.M, r.N, r.K, q.Mwg, q.Nwg, q.Kwg);
    gt::simcl::BufferPtr dA, dB, dC;
    {
      Scope s(&tr, "simcl.buffer", parent, id);
      gt::simcl::Context ctx(spec);
      dA = upload(ctx, A.data(), A.size());
      dB = upload(ctx, B.data(), B.size());
      dC = upload(ctx, C.data(), C.size());
    }
    ir::Kernel kernel;
    {
      Scope s(&tr, "codegen.generate", parent, id);
      kernel = gt::codegen::generate_direct_gemm_kernel(q, ta, tb, guarded);
    }
    {
      Scope s(&tr, "kernelir.compile", parent, id);
      compile_lookup(kernel);
    }
    {
      Scope s(&tr, "kernelir.launch", parent, id);
      const auto geo = gt::codegen::launch_geometry(q, ext.Mp, ext.Np);
      std::vector<ir::ArgValue> args(11);
      args[DirectGemmKernelArgs::C] = ir::ArgValue::of(dC);
      args[DirectGemmKernelArgs::A] = ir::ArgValue::of(dA);
      args[DirectGemmKernelArgs::B] = ir::ArgValue::of(dB);
      args[DirectGemmKernelArgs::M] = ir::ArgValue::of_int(r.M);
      args[DirectGemmKernelArgs::N] = ir::ArgValue::of_int(r.N);
      args[DirectGemmKernelArgs::K] = ir::ArgValue::of_int(r.K);
      args[DirectGemmKernelArgs::lda] = ir::ArgValue::of_int(A.ld());
      args[DirectGemmKernelArgs::ldb] = ir::ArgValue::of_int(B.ld());
      args[DirectGemmKernelArgs::ldc] = ir::ArgValue::of_int(C.ld());
      args[DirectGemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
      args[DirectGemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
      count(st, ir::launch(kernel, geo.global, geo.local, args));
    }
    {
      Scope s(&tr, "simcl.buffer", parent, id);
      std::memcpy(C.data(), dC->data(), C.size() * sizeof(T));
    }
  } else {
    const gt::PackedExtents ext =
        gt::packed_extents(r.M, r.N, r.K, p.Mwg, p.Nwg, p.Kwg);
    std::vector<T> abuf, bbuf, cbuf;
    {
      Scope s(&tr, "layout.pack", parent, id);
      abuf = gt::pack_a(A, ta, r.M, r.K, ext.Mp, ext.Kp, p.layout_a, p.Mwg,
                        p.Kwg);
      bbuf = gt::pack_b(B, tb, r.K, r.N, ext.Kp, ext.Np, p.layout_b, p.Kwg,
                        p.Nwg);
      cbuf = gt::pack_c(C, r.M, r.N, ext.Mp, ext.Np);
    }
    st.packed_bytes =
        static_cast<double>((abuf.size() + bbuf.size() + cbuf.size()) *
                            sizeof(T));
    gt::simcl::BufferPtr dA, dB, dC;
    {
      Scope s(&tr, "simcl.buffer", parent, id);
      gt::simcl::Context ctx(spec);
      dA = upload(ctx, abuf.data(), abuf.size());
      dB = upload(ctx, bbuf.data(), bbuf.size());
      dC = upload(ctx, cbuf.data(), cbuf.size());
    }
    ir::Kernel kernel;
    {
      Scope s(&tr, "codegen.generate", parent, id);
      kernel = gt::codegen::generate_gemm_kernel(p);
    }
    {
      Scope s(&tr, "kernelir.compile", parent, id);
      compile_lookup(kernel);
    }
    {
      Scope s(&tr, "kernelir.launch", parent, id);
      const auto geo = gt::codegen::launch_geometry(p, ext.Mp, ext.Np);
      std::vector<ir::ArgValue> args(8);
      args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
      args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
      args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
      args[GemmKernelArgs::M] = ir::ArgValue::of_int(ext.Mp);
      args[GemmKernelArgs::N] = ir::ArgValue::of_int(ext.Np);
      args[GemmKernelArgs::K] = ir::ArgValue::of_int(ext.Kp);
      args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(alpha);
      args[GemmKernelArgs::beta] = ir::ArgValue::of_float(beta);
      count(st, ir::launch(kernel, geo.global, geo.local, args));
    }
    std::vector<T> cout(cbuf.size());
    {
      Scope s(&tr, "simcl.buffer", parent, id);
      std::memcpy(cout.data(), dC->data(), cout.size() * sizeof(T));
    }
    {
      Scope s(&tr, "layout.unpack", parent, id);
      gt::unpack_c(cout, ext.Mp, ext.Np, C, r.M, r.N);
    }
  }

  if (verify) {
    Scope s(&tr, "hostblas.oracle", parent, id);
    gt::hostblas::gemm_parallel(ta, tb, r.M, r.N, r.K, alpha, A, B, beta,
                                Cin);
    st.oracle_error = gt::max_abs_diff(C, Cin);
  }
  return st;
}

template ReplayStats replay_gemm<float>(Tracer&, int, const Request&,
                                        gt::blas::GemmEngine&,
                                        const Matrix<float>&,
                                        const Matrix<float>&, Matrix<float>&,
                                        bool);
template ReplayStats replay_gemm<double>(Tracer&, int, const Request&,
                                         gt::blas::GemmEngine&,
                                         const Matrix<double>&,
                                         const Matrix<double>&,
                                         Matrix<double>&, bool);

}  // namespace perfbench
