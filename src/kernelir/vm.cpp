// Bytecode virtual machine: instruction-major execution of a
// CompiledKernel. Every run-time check the tree-walker performs (launch
// validation, loop-bound uniformity, bounds, divide-by-zero, barrier
// divergence) is re-raised here with the same message text, and every
// counter is accumulated per work-item exactly where the tree would.
#include "kernelir/vm.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace gemmtune::ir {

LaunchPlan::LaunchPlan(const Kernel& k, std::array<std::int64_t, 2> g,
                       std::array<std::int64_t, 2> l,
                       const std::vector<ArgValue>& a)
    : kernel(&k), global(g), local(l), args(&a) {
  check(local[0] > 0 && local[1] > 0, "launch: empty work-group");
  check(global[0] > 0 && global[1] > 0, "launch: empty NDRange");
  check(global[0] % local[0] == 0 && global[1] % local[1] == 0,
        "launch: global size not a multiple of local size");
  if (k.reqd_local[0] > 0) {
    check(k.reqd_local[0] == local[0] && k.reqd_local[1] == local[1],
          "launch: work-group size violates reqd_work_group_size");
  }
  check(a.size() == k.args.size(), "launch: argument count mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool is_ptr = k.args[i].kind == ArgKind::GlobalPtr ||
                        k.args[i].kind == ArgKind::GlobalConstPtr;
    check(is_ptr == (a[i].buffer != nullptr),
          "launch: argument " + k.args[i].name + " kind mismatch");
  }
  ngx = global[0] / local[0];
  ngroups = ngx * (global[1] / local[1]);
  items_per_group = local[0] * local[1];
  for (const auto& sym : k.symbols) {
    if (sym.array_len == 0) {
      ++n_vars;
    } else if (sym.space == AddrSpace::Private) {
      ++n_parrays;
    } else {
      ++n_larrays;
    }
  }
  views.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ArgView& v = views[i];
    v.i = a[i].i;
    v.f = a[i].f;
    if (a[i].buffer) {
      simcl::Buffer& buf = *a[i].buffer;
      if (k.args[i].elem == Scalar::F64) {
        v.f64 = buf.as<double>();
        v.elems = static_cast<std::int64_t>(buf.size()) / 8;
      } else {
        v.f32 = buf.as<float>();
        v.elems = static_cast<std::int64_t>(buf.size()) / 4;
      }
    }
  }
}

VmDispatch resolve_vm_dispatch() { return VmDispatch::Threaded; }

const char* to_string(VmDispatch) { return "threaded"; }

VmMachine::VmMachine(const CompiledKernel& prog, const LaunchPlan& plan)
    : p_(prog), plan_(plan) {
  nitems_ = static_cast<int>(plan.items_per_group);
  u_.assign(static_cast<std::size_t>(p_.n_u), 0);
  vi_.assign(static_cast<std::size_t>(p_.n_vi) *
                 static_cast<std::size_t>(nitems_),
             0);
  vf_.assign(static_cast<std::size_t>(p_.n_vf) *
                 static_cast<std::size_t>(nitems_),
             0.0);
  parr_.assign(static_cast<std::size_t>(p_.parr_doubles) *
                   static_cast<std::size_t>(nitems_),
               0.0);
  larr_.assign(static_cast<std::size_t>(p_.larr_doubles), 0.0);
  mask_.assign(static_cast<std::size_t>(nitems_), 1);
  mask_stack_.resize(static_cast<std::size_t>(p_.max_mask_depth));
  for (auto& f : mask_stack_)
    f.saved.assign(static_cast<std::size_t>(nitems_), 1);
}

Counters VmMachine::run_range(std::int64_t begin, std::int64_t end) {
  for (std::int64_t g = begin; g < end; ++g)
    run_group(g % plan_.ngx, g / plan_.ngx);
  return counters_;
}

std::int64_t VmMachine::builtin_u(int fn_dim) const {
  const int dim = fn_dim & 1;
  const auto fn = static_cast<BuiltinFn>(fn_dim >> 1);
  const std::int64_t gid = dim == 0 ? gx_ : gy_;
  const std::int64_t lsz = plan_.local[static_cast<std::size_t>(dim)];
  const std::int64_t gsz = plan_.global[static_cast<std::size_t>(dim)];
  switch (fn) {
    case BuiltinFn::GroupId: return gid;
    case BuiltinFn::LocalSize: return lsz;
    case BuiltinFn::NumGroups: return gsz / lsz;
    default: break;
  }
  fail("interp: bad builtin");
}

void VmMachine::run_group(std::int64_t gx, std::int64_t gy) {
  gx_ = gx;
  gy_ = gy;
  const int ni = nitems_;
  const auto nu = static_cast<std::size_t>(ni);
  // Per-group state reset mirrors the tree's fresh Item/array vectors:
  // variables and slabs read as zero until written; temporaries are
  // provably written before read (their defining instruction dominates
  // every use in the same group).
  std::fill(u_.begin(), u_.end(), 0);
  std::fill(vi_.begin(), vi_.begin() + static_cast<std::ptrdiff_t>(
                                           static_cast<std::size_t>(
                                               p_.n_vi_vars) *
                                           nu),
            0);
  std::fill(vf_.begin(), vf_.begin() + static_cast<std::ptrdiff_t>(
                                           static_cast<std::size_t>(
                                               p_.n_vf_vars) *
                                           nu),
            0.0);
  std::fill(parr_.begin(), parr_.end(), 0.0);
  std::fill(larr_.begin(), larr_.end(), 0.0);
  std::fill(mask_.begin(), mask_.end(), 1);
  active_ = ni;
  mask_depth_ = 0;
  run_group_threaded();
}

// Shared op bodies for the threaded executor's specialized handlers. Each
// template bakes the operand shape the pre-decoder proved for one
// instruction — lane width W (0 keeps it a runtime value), f32 rounding
// RND, divergence masking MASKED, operand uniformity — so the optimizer
// unrolls the lane loops and drops the dead tests a generic handler
// re-evaluates per item. Every body matches its generic handler exactly:
// same evaluation order, same counter totals, same error messages. f32
// rounding chains keep the runtime-width loop shape (W == 0) of the
// generic handlers, so the host build cannot reorganize them differently
// between a specialized and a generic handler.
struct VmMachine::Ops {
  template <Op OPK, int W, bool RND, bool MASKED>
  static void fbin(VmMachine& m, const Insn& in) {
    const auto nu = static_cast<std::size_t>(m.nitems_);
    double* const dst = &m.vf_[static_cast<std::size_t>(in.dst) * nu];
    const double* const a = &m.vf_[static_cast<std::size_t>(in.a) * nu];
    const double* const b = &m.vf_[static_cast<std::size_t>(in.b) * nu];
    const int w = W > 0 ? W : in.lanes;
    const int ni = m.nitems_;
    for (int t = 0; t < ni; ++t) {
      if (MASKED && !m.mask_[static_cast<std::size_t>(t)]) continue;
      for (int l = 0; l < w; ++l) {
        const int i = t * w + l;
        double r = 0;
        if (OPK == Op::FAdd) r = a[i] + b[i];
        if (OPK == Op::FSub) r = a[i] - b[i];
        if (OPK == Op::FMul) r = a[i] * b[i];
        dst[i] = RND ? static_cast<double>(static_cast<float>(r)) : r;
      }
      m.counters_.flops += static_cast<std::uint64_t>(w);
    }
  }

  template <int W, bool RND, bool MASKED>
  static void fmad(VmMachine& m, const Insn& in) {
    const auto nu = static_cast<std::size_t>(m.nitems_);
    double* const dst = &m.vf_[static_cast<std::size_t>(in.dst) * nu];
    const double* const a = &m.vf_[static_cast<std::size_t>(in.a) * nu];
    const double* const b = &m.vf_[static_cast<std::size_t>(in.b) * nu];
    const double* const c = &m.vf_[static_cast<std::size_t>(in.c) * nu];
    const int w = W > 0 ? W : in.lanes;
    const int ni = m.nitems_;
    for (int t = 0; t < ni; ++t) {
      if (MASKED && !m.mask_[static_cast<std::size_t>(t)]) continue;
      for (int l = 0; l < w; ++l) {
        const int i = t * w + l;
        const double r = a[i] * b[i] + c[i];
        dst[i] = RND ? static_cast<double>(static_cast<float>(r)) : r;
      }
      m.counters_.flops += 2u * static_cast<std::uint64_t>(w);
      ++m.counters_.mads;
    }
  }

  template <int W, bool RND>
  static void fmapp(VmMachine& m, const Insn& in) {
    const ArrayRef& cr = m.p_.arrays[static_cast<std::size_t>(in.a)];
    const ArrayRef& br = m.p_.arrays[static_cast<std::size_t>(in.b)];
    const auto nu = static_cast<std::size_t>(m.nitems_);
    const double* const av = &m.vf_[static_cast<std::size_t>(in.c) * nu];
    const int w = W > 0 ? W : in.lanes;
    const int stride = in.aux >> 3;
    const std::int64_t coff = cr.offset + in.dst;
    const std::int64_t boff = br.offset + in.imm;
    const std::size_t pd = static_cast<std::size_t>(m.p_.parr_doubles);
    double* const parr = m.parr_.data();
    const int ni = m.nitems_;
    for (int t = 0; t < ni; ++t) {
      double* const pa = parr + static_cast<std::size_t>(t) * pd;
      double* const cp = pa + coff;
      const double* const bp = pa + boff;
      const double* const ap = av + t * stride;
      for (int l = 0; l < w; ++l) {
        const double r = ap[l] * bp[l] + cp[l];
        cp[l] = RND ? static_cast<double>(static_cast<float>(r)) : r;
      }
      m.counters_.flops += 2u * static_cast<std::uint64_t>(w);
      ++m.counters_.mads;
    }
  }

  template <int W>
  static void splatp(VmMachine& m, const Insn& in) {
    const ArrayRef& ar = m.p_.arrays[static_cast<std::size_t>(in.a)];
    const auto nu = static_cast<std::size_t>(m.nitems_);
    double* const dst = &m.vf_[static_cast<std::size_t>(in.dst) * nu];
    const int w = W > 0 ? W : in.lanes;
    const int dw = in.b;
    const std::int64_t off = ar.offset + in.imm;
    const std::size_t pd = static_cast<std::size_t>(m.p_.parr_doubles);
    const double* const parr = m.parr_.data();
    const int ni = m.nitems_;
    if (w == dw) {  // splat fills the whole register: no zero tail
      for (int t = 0; t < ni; ++t) {
        const double x = parr[static_cast<std::size_t>(t) * pd +
                              static_cast<std::size_t>(off)];
        for (int l = 0; l < w; ++l) dst[t * w + l] = x;
      }
    } else {
      for (int t = 0; t < ni; ++t) {
        const double x = parr[static_cast<std::size_t>(t) * pd +
                              static_cast<std::size_t>(off)];
        for (int l = 0; l < w; ++l) dst[t * dw + l] = x;
        for (int l = w; l < dw; ++l) dst[t * dw + l] = 0.0;
      }
    }
  }

  template <bool STORE, bool LOCAL, int W, bool MASKED>
  static void lmem(VmMachine& m, const Insn& in) {
    const ArrayRef& ar = m.p_.arrays[static_cast<std::size_t>(in.a)];
    const auto nu = static_cast<std::size_t>(m.nitems_);
    const int w = W > 0 ? W : in.lanes;
    const std::int64_t* const addr_v =
        (in.flags & (kImmAddr | kBUni))
            ? nullptr
            : &m.vi_[static_cast<std::size_t>(in.b) * nu];
    const std::int64_t addr_u =
        in.flags & kImmAddr
            ? in.imm
            : (addr_v ? 0 : m.u_[static_cast<std::size_t>(in.b)]);
    double* const dst =
        STORE ? nullptr : &m.vf_[static_cast<std::size_t>(in.dst) * nu];
    const double* const val =
        STORE ? &m.vf_[static_cast<std::size_t>(in.c) * nu] : nullptr;
    const auto bytes = static_cast<std::uint64_t>(w) *
                       (in.aux & kCount8 ? 8u : 4u);
    const std::size_t pd = static_cast<std::size_t>(m.p_.parr_doubles);
    const int ni = m.nitems_;
    for (int t = 0; t < ni; ++t) {
      if (MASKED && !m.mask_[static_cast<std::size_t>(t)]) continue;
      const std::int64_t idx = addr_v ? addr_v[t] : addr_u;
      if (idx < 0 || idx + w > ar.len)
        fail(strf("%s array '%s' %s out of range: index %lld + %d "
                  "lanes, %zu elements",
                  LOCAL ? "local" : "private", ar.name.c_str(),
                  STORE ? "store" : "load", static_cast<long long>(idx), w,
                  static_cast<std::size_t>(ar.len)));
      double* const slab =
          LOCAL ? m.larr_.data()
                : &m.parr_[static_cast<std::size_t>(t) * pd];
      double* const p = slab + ar.offset + idx;
      if (STORE) {
        for (int l = 0; l < w; ++l) p[l] = val[t * w + l];
        if (LOCAL) m.counters_.local_store_bytes += bytes;
      } else {
        for (int l = 0; l < w; ++l) dst[t * w + l] = p[l];
        if (LOCAL) m.counters_.local_load_bytes += bytes;
      }
    }
  }

  template <Op OPK, bool AU, bool BU>
  static void vbin(VmMachine& m, const Insn& in) {
    const auto nu = static_cast<std::size_t>(m.nitems_);
    std::int64_t* const dst = &m.vi_[static_cast<std::size_t>(in.dst) * nu];
    const std::int64_t* const a =
        AU ? nullptr : &m.vi_[static_cast<std::size_t>(in.a) * nu];
    const std::int64_t* const b =
        BU ? nullptr : &m.vi_[static_cast<std::size_t>(in.b) * nu];
    const std::int64_t au = AU ? m.u_[static_cast<std::size_t>(in.a)] : 0;
    const std::int64_t bu = BU ? m.u_[static_cast<std::size_t>(in.b)] : 0;
    const int ni = m.nitems_;
    for (int t = 0; t < ni; ++t) {
      const std::int64_t x = AU ? au : a[t];
      const std::int64_t y = BU ? bu : b[t];
      if (OPK == Op::VAdd) {
        dst[t] = x + y;
      } else if (OPK == Op::VSub) {
        dst[t] = x - y;
      } else if (OPK == Op::VMul) {
        dst[t] = x * y;
      } else if (OPK == Op::VLt) {
        dst[t] = x < y ? 1 : 0;
      } else {
        dst[t] = (x != 0 && y != 0) ? 1 : 0;
      }
    }
  }
};

void VmMachine::run_group_threaded() {
  const int ni = nitems_;
  const auto nu = static_cast<std::size_t>(ni);
  const Insn* const code = p_.code.data();
  const std::int64_t lsx = plan_.local[0];

  if (tcode_.size() != p_.code.size()) {
    // Generic handler table, indexed by Op in declaration order. Families
    // the decoder always specializes still get a generic entry that
    // branches on the runtime flags, so a missed decode case degrades to
    // generic behaviour instead of a wrong handler.
    static const void* const generic[] = {
        &&g_halt,      &&g_uconst,  &&g_uarg,     &&g_ubuiltin, &&g_uadd,
        &&g_usub,      &&g_umul,    &&g_udiv,     &&g_umod,     &&g_ult,
        &&g_uand,      &&g_umov,    &&g_ustep,    &&g_vbuiltin, &&g_vbin,
        &&g_vbin,      &&g_vbin,    &&g_vdivmod,  &&g_vdivmod,  &&g_vbin,
        &&g_vbin,      &&g_vmovu,   &&g_vmov,     &&g_fconst,   &&g_farg,
        &&g_fmov,      &&g_fsplat,  &&g_flane,    &&g_fbin,     &&g_fbin,
        &&g_fbin,      &&g_fmad,    &&g_fmapp,    &&g_splatp,   &&g_gmem,
        &&g_gmem,      &&g_lmem,    &&g_lmem,     &&g_lmem,     &&g_lmem,
        &&g_jmp,       &&g_jzu,     &&g_jgeu,     &&g_jnone,    &&g_forv,
        &&g_maskpush,  &&g_maskflip, &&g_maskpop, &&g_barrier,  &&g_throw};
    tcode_.clear();
    tcode_.reserve(p_.code.size());
#define GEMMTUNE_PICK_W(p)                                                \
  (in.lanes == 1   ? &&p##1                                               \
   : in.lanes == 2 ? &&p##2                                               \
   : in.lanes == 4 ? &&p##4                                               \
   : in.lanes == 8 ? &&p##8                                               \
                   : &&p##g)
    for (const Insn& in : p_.code) {
      const bool masked = (in.flags & kMasked) != 0;
      const bool rnd = (in.aux & kRoundF32) != 0;
      const void* h = generic[static_cast<std::size_t>(in.op)];
      switch (in.op) {
        case Op::FAdd:
          h = masked ? (rnd ? &&s_fadd_mr : &&s_fadd_m)
              : rnd  ? &&s_fadd_r
                     : GEMMTUNE_PICK_W(s_fadd_w);
          break;
        case Op::FSub:
          h = masked ? (rnd ? &&s_fsub_mr : &&s_fsub_m)
              : rnd  ? &&s_fsub_r
                     : GEMMTUNE_PICK_W(s_fsub_w);
          break;
        case Op::FMul:
          h = masked ? (rnd ? &&s_fmul_mr : &&s_fmul_m)
              : rnd  ? &&s_fmul_r
                     : GEMMTUNE_PICK_W(s_fmul_w);
          break;
        case Op::FMad:
          h = masked ? (rnd ? &&s_fmad_mr : &&s_fmad_m)
              : rnd  ? &&s_fmad_r
                     : GEMMTUNE_PICK_W(s_fmad_w);
          break;
        case Op::FmaPP:
          h = rnd ? &&s_fmapp_r : GEMMTUNE_PICK_W(s_fmapp_w);
          break;
        case Op::SplatLaneP:
          h = GEMMTUNE_PICK_W(s_splat_w);
          break;
        case Op::LoadL:
          h = masked ? &&s_ldl_m : GEMMTUNE_PICK_W(s_ldl_w);
          break;
        case Op::StoreL:
          h = masked ? &&s_stl_m : GEMMTUNE_PICK_W(s_stl_w);
          break;
        case Op::LoadP:
          h = masked ? &&s_ldp_m : GEMMTUNE_PICK_W(s_ldp_w);
          break;
        case Op::StoreP:
          h = masked ? &&s_stp_m : GEMMTUNE_PICK_W(s_stp_w);
          break;
        case Op::VAdd:
          h = (in.flags & kAUni)
                  ? ((in.flags & kBUni) ? &&s_vadd_uu : &&s_vadd_uv)
                  : ((in.flags & kBUni) ? &&s_vadd_vu : &&s_vadd_vv);
          break;
        case Op::VSub:
          h = (in.flags & kAUni)
                  ? ((in.flags & kBUni) ? &&s_vsub_uu : &&s_vsub_uv)
                  : ((in.flags & kBUni) ? &&s_vsub_vu : &&s_vsub_vv);
          break;
        case Op::VMul:
          h = (in.flags & kAUni)
                  ? ((in.flags & kBUni) ? &&s_vmul_uu : &&s_vmul_uv)
                  : ((in.flags & kBUni) ? &&s_vmul_vu : &&s_vmul_vv);
          break;
        case Op::VLt:
          h = (in.flags & kAUni)
                  ? ((in.flags & kBUni) ? &&s_vlt_uu : &&s_vlt_uv)
                  : ((in.flags & kBUni) ? &&s_vlt_vu : &&s_vlt_vv);
          break;
        case Op::VAnd:
          h = (in.flags & kAUni)
                  ? ((in.flags & kBUni) ? &&s_vand_uu : &&s_vand_uv)
                  : ((in.flags & kBUni) ? &&s_vand_vu : &&s_vand_vv);
          break;
        default:
          break;
      }
      tcode_.push_back(h);
    }
#undef GEMMTUNE_PICK_W
  }

  const void* const* const tc = tcode_.data();
  const Insn* ip = code;
  std::int64_t pc = 0;
#define GT_NEXT                    \
  {                                \
    const std::int64_t i_ = pc;    \
    ++pc;                          \
    ip = code + i_;                \
    goto *tc[i_];                  \
  }
  GT_NEXT;

  // --- generic handlers: one per op, branching on the runtime flags ---
g_halt:
  return;
g_uconst:
  u_[static_cast<std::size_t>(ip->dst)] = ip->imm;
  GT_NEXT;
g_uarg:
  u_[static_cast<std::size_t>(ip->dst)] =
      plan_.views[static_cast<std::size_t>(ip->a)].i;
  GT_NEXT;
g_ubuiltin:
  u_[static_cast<std::size_t>(ip->dst)] = builtin_u(ip->aux);
  GT_NEXT;
g_uadd:
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] +
      u_[static_cast<std::size_t>(ip->b)];
  GT_NEXT;
g_usub:
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] -
      u_[static_cast<std::size_t>(ip->b)];
  GT_NEXT;
g_umul:
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] *
      u_[static_cast<std::size_t>(ip->b)];
  GT_NEXT;
g_udiv: {
  const std::int64_t d = u_[static_cast<std::size_t>(ip->b)];
  if (d == 0) fail("interp: integer division by zero");
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] / d;
}
  GT_NEXT;
g_umod: {
  const std::int64_t d = u_[static_cast<std::size_t>(ip->b)];
  if (d == 0) fail("interp: integer modulo by zero");
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] % d;
}
  GT_NEXT;
g_ult:
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)] <
              u_[static_cast<std::size_t>(ip->b)]
          ? 1
          : 0;
  GT_NEXT;
g_uand:
  u_[static_cast<std::size_t>(ip->dst)] =
      (u_[static_cast<std::size_t>(ip->a)] != 0 &&
       u_[static_cast<std::size_t>(ip->b)] != 0)
          ? 1
          : 0;
  GT_NEXT;
g_umov:
  u_[static_cast<std::size_t>(ip->dst)] =
      u_[static_cast<std::size_t>(ip->a)];
  GT_NEXT;
g_ustep:
  if (u_[static_cast<std::size_t>(ip->a)] <= 0)
    fail("for: non-positive step");
  GT_NEXT;
g_vbuiltin: {
  const Insn& in = *ip;
  std::int64_t* dst = &vi_[static_cast<std::size_t>(in.dst) * nu];
  const int dim = in.aux & 1;
  const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
  for (int t = 0; t < ni; ++t) {
    const std::int64_t lid = dim == 0 ? t % lsx : t / lsx;
    switch (fn) {
      case BuiltinFn::LocalId:
        dst[t] = lid;
        break;
      case BuiltinFn::GlobalId:
        dst[t] = (dim == 0 ? gx_ : gy_) *
                     plan_.local[static_cast<std::size_t>(dim)] +
                 lid;
        break;
      default:
        dst[t] = builtin_u(in.aux);
        break;
    }
  }
}
  GT_NEXT;
g_vbin: {
  const Insn& in = *ip;
  std::int64_t* dst = &vi_[static_cast<std::size_t>(in.dst) * nu];
  const std::int64_t* a =
      in.flags & kAUni ? nullptr : &vi_[static_cast<std::size_t>(in.a) * nu];
  const std::int64_t* b =
      in.flags & kBUni ? nullptr : &vi_[static_cast<std::size_t>(in.b) * nu];
  const std::int64_t au = a ? 0 : u_[static_cast<std::size_t>(in.a)];
  const std::int64_t bu = b ? 0 : u_[static_cast<std::size_t>(in.b)];
  for (int t = 0; t < ni; ++t) {
    const std::int64_t x = a ? a[t] : au;
    const std::int64_t y = b ? b[t] : bu;
    switch (in.op) {
      case Op::VAdd: dst[t] = x + y; break;
      case Op::VSub: dst[t] = x - y; break;
      case Op::VMul: dst[t] = x * y; break;
      case Op::VLt: dst[t] = x < y ? 1 : 0; break;
      default: dst[t] = (x != 0 && y != 0) ? 1 : 0; break;
    }
  }
}
  GT_NEXT;
g_vdivmod: {
  const Insn& in = *ip;
  std::int64_t* dst = &vi_[static_cast<std::size_t>(in.dst) * nu];
  const std::int64_t* a =
      in.flags & kAUni ? nullptr : &vi_[static_cast<std::size_t>(in.a) * nu];
  const std::int64_t* b =
      in.flags & kBUni ? nullptr : &vi_[static_cast<std::size_t>(in.b) * nu];
  const std::int64_t au = a ? 0 : u_[static_cast<std::size_t>(in.a)];
  const std::int64_t bu = b ? 0 : u_[static_cast<std::size_t>(in.b)];
  const bool masked = in.flags & kMasked;
  for (int t = 0; t < ni; ++t) {
    if (masked && !mask_[static_cast<std::size_t>(t)]) continue;
    const std::int64_t x = a ? a[t] : au;
    const std::int64_t y = b ? b[t] : bu;
    if (in.op == Op::VDiv) {
      if (y == 0) fail("interp: integer division by zero");
      dst[t] = x / y;
    } else {
      if (y == 0) fail("interp: integer modulo by zero");
      dst[t] = x % y;
    }
  }
}
  GT_NEXT;
g_vmovu: {
  const Insn& in = *ip;
  std::int64_t* dst = &vi_[static_cast<std::size_t>(in.dst) * nu];
  const std::int64_t v = u_[static_cast<std::size_t>(in.a)];
  if (in.flags & kMasked) {
    for (int t = 0; t < ni; ++t)
      if (mask_[static_cast<std::size_t>(t)]) dst[t] = v;
  } else {
    for (int t = 0; t < ni; ++t) dst[t] = v;
  }
}
  GT_NEXT;
g_vmov: {
  const Insn& in = *ip;
  std::int64_t* dst = &vi_[static_cast<std::size_t>(in.dst) * nu];
  const std::int64_t* src = &vi_[static_cast<std::size_t>(in.a) * nu];
  if (in.flags & kMasked) {
    for (int t = 0; t < ni; ++t)
      if (mask_[static_cast<std::size_t>(t)]) dst[t] = src[t];
  } else {
    for (int t = 0; t < ni; ++t) dst[t] = src[t];
  }
}
  GT_NEXT;
g_fconst: {
  const Insn& in = *ip;
  double* dst = &vf_[static_cast<std::size_t>(in.dst) * nu];
  const double* src = &p_.fpool[static_cast<std::size_t>(in.imm)];
  const int w = in.lanes;
  for (int t = 0; t < ni; ++t)
    for (int l = 0; l < w; ++l) dst[t * w + l] = src[l];
}
  GT_NEXT;
g_farg: {
  const Insn& in = *ip;
  double* dst = &vf_[static_cast<std::size_t>(in.dst) * nu];
  double x = plan_.views[static_cast<std::size_t>(in.a)].f;
  if (in.aux & kRoundF32) x = static_cast<double>(static_cast<float>(x));
  const int w = in.lanes;
  for (int t = 0; t < ni; ++t) {
    dst[t * w] = x;
    for (int l = 1; l < w; ++l) dst[t * w + l] = 0.0;
  }
}
  GT_NEXT;
g_fmov: {
  const Insn& in = *ip;
  double* dst = &vf_[static_cast<std::size_t>(in.dst) * nu];
  const double* src = &vf_[static_cast<std::size_t>(in.a) * nu];
  const int dw = in.b, sw = in.c, n = in.lanes;
  const bool masked = in.flags & kMasked;
  for (int t = 0; t < ni; ++t) {
    if (masked && !mask_[static_cast<std::size_t>(t)]) continue;
    for (int l = 0; l < n; ++l) dst[t * dw + l] = src[t * sw + l];
    for (int l = n; l < dw; ++l) dst[t * dw + l] = 0.0;
  }
}
  GT_NEXT;
g_fsplat: {
  const Insn& in = *ip;
  double* dst = &vf_[static_cast<std::size_t>(in.dst) * nu];
  const double* src = &vf_[static_cast<std::size_t>(in.a) * nu];
  const int w = in.lanes, sw = in.aux;
  for (int t = 0; t < ni; ++t) {
    const double x = src[t * sw];
    for (int l = 0; l < w; ++l) dst[t * w + l] = x;
  }
}
  GT_NEXT;
g_flane: {
  const Insn& in = *ip;
  double* dst = &vf_[static_cast<std::size_t>(in.dst) * nu];
  const double* src = &vf_[static_cast<std::size_t>(in.a) * nu];
  const int sw = in.aux;
  const auto ln = static_cast<int>(in.imm);
  for (int t = 0; t < ni; ++t) dst[t] = ln < sw ? src[t * sw + ln] : 0.0;
}
  GT_NEXT;
g_fbin: {
  const Insn& in = *ip;
  const bool rnd = in.aux & kRoundF32;
  if (in.flags & kMasked) {
    if (rnd) {
      if (in.op == Op::FAdd) Ops::fbin<Op::FAdd, 0, true, true>(*this, in);
      if (in.op == Op::FSub) Ops::fbin<Op::FSub, 0, true, true>(*this, in);
      if (in.op == Op::FMul) Ops::fbin<Op::FMul, 0, true, true>(*this, in);
    } else {
      if (in.op == Op::FAdd) Ops::fbin<Op::FAdd, 0, false, true>(*this, in);
      if (in.op == Op::FSub) Ops::fbin<Op::FSub, 0, false, true>(*this, in);
      if (in.op == Op::FMul) Ops::fbin<Op::FMul, 0, false, true>(*this, in);
    }
  } else {
    if (rnd) {
      if (in.op == Op::FAdd) Ops::fbin<Op::FAdd, 0, true, false>(*this, in);
      if (in.op == Op::FSub) Ops::fbin<Op::FSub, 0, true, false>(*this, in);
      if (in.op == Op::FMul) Ops::fbin<Op::FMul, 0, true, false>(*this, in);
    } else {
      if (in.op == Op::FAdd) Ops::fbin<Op::FAdd, 0, false, false>(*this, in);
      if (in.op == Op::FSub) Ops::fbin<Op::FSub, 0, false, false>(*this, in);
      if (in.op == Op::FMul) Ops::fbin<Op::FMul, 0, false, false>(*this, in);
    }
  }
}
  GT_NEXT;
g_fmad: {
  const Insn& in = *ip;
  const bool rnd = in.aux & kRoundF32;
  if (in.flags & kMasked) {
    if (rnd) {
      Ops::fmad<0, true, true>(*this, in);
    } else {
      Ops::fmad<0, false, true>(*this, in);
    }
  } else {
    if (rnd) {
      Ops::fmad<0, true, false>(*this, in);
    } else {
      Ops::fmad<0, false, false>(*this, in);
    }
  }
}
  GT_NEXT;
g_fmapp: {
  const Insn& in = *ip;
  if (in.aux & kRoundF32) {
    Ops::fmapp<0, true>(*this, in);
  } else {
    Ops::fmapp<0, false>(*this, in);
  }
}
  GT_NEXT;
g_splatp:
  Ops::splatp<0>(*this, *ip);
  GT_NEXT;
g_gmem: {
  const Insn& in = *ip;
  const bool is_store = in.op == Op::StoreG;
  const LaunchPlan::ArgView& view =
      plan_.views[static_cast<std::size_t>(in.a)];
  const int w = in.lanes;
  const bool f32 = in.aux & kElemF32;
  const int ebytes = f32 ? 4 : 8;
  const bool masked = in.flags & kMasked;
  const std::int64_t* addr_v =
      (in.flags & (kImmAddr | kBUni))
          ? nullptr
          : &vi_[static_cast<std::size_t>(in.b) * nu];
  const std::int64_t addr_u =
      in.flags & kImmAddr
          ? in.imm
          : (addr_v ? 0 : u_[static_cast<std::size_t>(in.b)]);
  double* dst =
      is_store ? nullptr : &vf_[static_cast<std::size_t>(in.dst) * nu];
  const double* val =
      is_store ? &vf_[static_cast<std::size_t>(in.c) * nu] : nullptr;
  for (int t = 0; t < ni; ++t) {
    if (masked && !mask_[static_cast<std::size_t>(t)]) continue;
    const std::int64_t idx = addr_v ? addr_v[t] : addr_u;
    if (idx < 0 || idx + w > view.elems)
      fail(strf("global %s out of range: index %lld + %d lanes, "
                "buffer %lld elements",
                is_store ? "store" : "load", static_cast<long long>(idx), w,
                static_cast<long long>(view.elems)));
    if (is_store) {
      if (f32) {
        for (int l = 0; l < w; ++l)
          view.f32[idx + l] = static_cast<float>(val[t * w + l]);
      } else {
        for (int l = 0; l < w; ++l) view.f64[idx + l] = val[t * w + l];
      }
    } else {
      if (f32) {
        for (int l = 0; l < w; ++l)
          dst[t * w + l] = static_cast<double>(view.f32[idx + l]);
      } else {
        for (int l = 0; l < w; ++l) dst[t * w + l] = view.f64[idx + l];
      }
    }
    const auto bytes = static_cast<std::uint64_t>(w) *
                       static_cast<std::uint64_t>(ebytes);
    if (is_store) {
      counters_.global_store_bytes += bytes;
    } else {
      counters_.global_load_bytes += bytes;
    }
  }
}
  GT_NEXT;
g_lmem: {
  const Insn& in = *ip;
  const bool is_store = in.op == Op::StoreL || in.op == Op::StoreP;
  const bool local = in.op == Op::LoadL || in.op == Op::StoreL;
  const bool masked = in.flags & kMasked;
  if (is_store) {
    if (local) {
      if (masked) {
        Ops::lmem<true, true, 0, true>(*this, in);
      } else {
        Ops::lmem<true, true, 0, false>(*this, in);
      }
    } else {
      if (masked) {
        Ops::lmem<true, false, 0, true>(*this, in);
      } else {
        Ops::lmem<true, false, 0, false>(*this, in);
      }
    }
  } else {
    if (local) {
      if (masked) {
        Ops::lmem<false, true, 0, true>(*this, in);
      } else {
        Ops::lmem<false, true, 0, false>(*this, in);
      }
    } else {
      if (masked) {
        Ops::lmem<false, false, 0, true>(*this, in);
      } else {
        Ops::lmem<false, false, 0, false>(*this, in);
      }
    }
  }
}
  GT_NEXT;
g_jmp:
  pc = ip->imm;
  GT_NEXT;
g_jzu:
  if (u_[static_cast<std::size_t>(ip->a)] == 0) pc = ip->imm;
  GT_NEXT;
g_jgeu:
  if (u_[static_cast<std::size_t>(ip->a)] >=
      u_[static_cast<std::size_t>(ip->b)])
    pc = ip->imm;
  GT_NEXT;
g_jnone:
  if (active_ == 0) pc = ip->imm;
  GT_NEXT;
g_forv: {
  const Insn& in = *ip;
  const std::int64_t* a = &vi_[static_cast<std::size_t>(in.a) * nu];
  const std::int64_t* b = &vi_[static_cast<std::size_t>(in.b) * nu];
  const std::int64_t* c = &vi_[static_cast<std::size_t>(in.c) * nu];
  int first = -1;
  for (int t = 0; t < ni; ++t) {
    if (mask_[static_cast<std::size_t>(t)]) {
      first = t;
      break;
    }
  }
  if (first < 0) {
    pc = in.imm;
  } else {
    const std::int64_t init = a[first], lim = b[first], stp = c[first];
    for (int t = first; t < ni; ++t) {
      if (!mask_[static_cast<std::size_t>(t)]) continue;
      if (a[t] != init || b[t] != lim || c[t] != stp)
        fail("for: non-uniform loop bounds across work-group");
    }
    if (stp <= 0) fail("for: non-positive step");
    u_[static_cast<std::size_t>(in.dst)] = init;
    u_[static_cast<std::size_t>(in.dst) + 1] = lim;
    u_[static_cast<std::size_t>(in.dst) + 2] = stp;
  }
}
  GT_NEXT;
g_maskpush: {
  const Insn& in = *ip;
  MaskFrame& f = mask_stack_[static_cast<std::size_t>(mask_depth_)];
  ++mask_depth_;
  f.saved = mask_;
  f.cond = in.a;
  f.saved_active = active_;
  const std::int64_t* c = &vi_[static_cast<std::size_t>(in.a) * nu];
  int n = 0;
  for (int t = 0; t < ni; ++t) {
    auto& m = mask_[static_cast<std::size_t>(t)];
    m = m && c[t] != 0 ? 1 : 0;
    n += m;
  }
  active_ = n;
}
  GT_NEXT;
g_maskflip: {
  MaskFrame& f = mask_stack_[static_cast<std::size_t>(mask_depth_ - 1)];
  const std::int64_t* c = &vi_[static_cast<std::size_t>(f.cond) * nu];
  int n = 0;
  for (int t = 0; t < ni; ++t) {
    auto& m = mask_[static_cast<std::size_t>(t)];
    m = f.saved[static_cast<std::size_t>(t)] && c[t] == 0 ? 1 : 0;
    n += m;
  }
  active_ = n;
}
  GT_NEXT;
g_maskpop: {
  --mask_depth_;
  MaskFrame& f = mask_stack_[static_cast<std::size_t>(mask_depth_)];
  mask_.swap(f.saved);
  active_ = f.saved_active;
}
  GT_NEXT;
g_barrier:
  for (char m : mask_)
    if (m == 0) fail("barrier inside divergent control flow");
  ++counters_.barriers;
  GT_NEXT;
g_throw:
  fail(p_.messages[static_cast<std::size_t>(ip->imm)]);

  // --- specialized handlers: shape baked at decode time ---
s_fadd_w1: Ops::fbin<Op::FAdd, 1, false, false>(*this, *ip); GT_NEXT;
s_fadd_w2: Ops::fbin<Op::FAdd, 2, false, false>(*this, *ip); GT_NEXT;
s_fadd_w4: Ops::fbin<Op::FAdd, 4, false, false>(*this, *ip); GT_NEXT;
s_fadd_w8: Ops::fbin<Op::FAdd, 8, false, false>(*this, *ip); GT_NEXT;
s_fadd_wg: Ops::fbin<Op::FAdd, 0, false, false>(*this, *ip); GT_NEXT;
s_fadd_r:  Ops::fbin<Op::FAdd, 0, true, false>(*this, *ip); GT_NEXT;
s_fadd_m:  Ops::fbin<Op::FAdd, 0, false, true>(*this, *ip); GT_NEXT;
s_fadd_mr: Ops::fbin<Op::FAdd, 0, true, true>(*this, *ip); GT_NEXT;
s_fsub_w1: Ops::fbin<Op::FSub, 1, false, false>(*this, *ip); GT_NEXT;
s_fsub_w2: Ops::fbin<Op::FSub, 2, false, false>(*this, *ip); GT_NEXT;
s_fsub_w4: Ops::fbin<Op::FSub, 4, false, false>(*this, *ip); GT_NEXT;
s_fsub_w8: Ops::fbin<Op::FSub, 8, false, false>(*this, *ip); GT_NEXT;
s_fsub_wg: Ops::fbin<Op::FSub, 0, false, false>(*this, *ip); GT_NEXT;
s_fsub_r:  Ops::fbin<Op::FSub, 0, true, false>(*this, *ip); GT_NEXT;
s_fsub_m:  Ops::fbin<Op::FSub, 0, false, true>(*this, *ip); GT_NEXT;
s_fsub_mr: Ops::fbin<Op::FSub, 0, true, true>(*this, *ip); GT_NEXT;
s_fmul_w1: Ops::fbin<Op::FMul, 1, false, false>(*this, *ip); GT_NEXT;
s_fmul_w2: Ops::fbin<Op::FMul, 2, false, false>(*this, *ip); GT_NEXT;
s_fmul_w4: Ops::fbin<Op::FMul, 4, false, false>(*this, *ip); GT_NEXT;
s_fmul_w8: Ops::fbin<Op::FMul, 8, false, false>(*this, *ip); GT_NEXT;
s_fmul_wg: Ops::fbin<Op::FMul, 0, false, false>(*this, *ip); GT_NEXT;
s_fmul_r:  Ops::fbin<Op::FMul, 0, true, false>(*this, *ip); GT_NEXT;
s_fmul_m:  Ops::fbin<Op::FMul, 0, false, true>(*this, *ip); GT_NEXT;
s_fmul_mr: Ops::fbin<Op::FMul, 0, true, true>(*this, *ip); GT_NEXT;
s_fmad_w1: Ops::fmad<1, false, false>(*this, *ip); GT_NEXT;
s_fmad_w2: Ops::fmad<2, false, false>(*this, *ip); GT_NEXT;
s_fmad_w4: Ops::fmad<4, false, false>(*this, *ip); GT_NEXT;
s_fmad_w8: Ops::fmad<8, false, false>(*this, *ip); GT_NEXT;
s_fmad_wg: Ops::fmad<0, false, false>(*this, *ip); GT_NEXT;
s_fmad_r:  Ops::fmad<0, true, false>(*this, *ip); GT_NEXT;
s_fmad_m:  Ops::fmad<0, false, true>(*this, *ip); GT_NEXT;
s_fmad_mr: Ops::fmad<0, true, true>(*this, *ip); GT_NEXT;
s_fmapp_w1: Ops::fmapp<1, false>(*this, *ip); GT_NEXT;
s_fmapp_w2: Ops::fmapp<2, false>(*this, *ip); GT_NEXT;
s_fmapp_w4: Ops::fmapp<4, false>(*this, *ip); GT_NEXT;
s_fmapp_w8: Ops::fmapp<8, false>(*this, *ip); GT_NEXT;
s_fmapp_wg: Ops::fmapp<0, false>(*this, *ip); GT_NEXT;
s_fmapp_r:  Ops::fmapp<0, true>(*this, *ip); GT_NEXT;
s_splat_w1: Ops::splatp<1>(*this, *ip); GT_NEXT;
s_splat_w2: Ops::splatp<2>(*this, *ip); GT_NEXT;
s_splat_w4: Ops::splatp<4>(*this, *ip); GT_NEXT;
s_splat_w8: Ops::splatp<8>(*this, *ip); GT_NEXT;
s_splat_wg: Ops::splatp<0>(*this, *ip); GT_NEXT;
s_ldl_w1: Ops::lmem<false, true, 1, false>(*this, *ip); GT_NEXT;
s_ldl_w2: Ops::lmem<false, true, 2, false>(*this, *ip); GT_NEXT;
s_ldl_w4: Ops::lmem<false, true, 4, false>(*this, *ip); GT_NEXT;
s_ldl_w8: Ops::lmem<false, true, 8, false>(*this, *ip); GT_NEXT;
s_ldl_wg: Ops::lmem<false, true, 0, false>(*this, *ip); GT_NEXT;
s_ldl_m:  Ops::lmem<false, true, 0, true>(*this, *ip); GT_NEXT;
s_stl_w1: Ops::lmem<true, true, 1, false>(*this, *ip); GT_NEXT;
s_stl_w2: Ops::lmem<true, true, 2, false>(*this, *ip); GT_NEXT;
s_stl_w4: Ops::lmem<true, true, 4, false>(*this, *ip); GT_NEXT;
s_stl_w8: Ops::lmem<true, true, 8, false>(*this, *ip); GT_NEXT;
s_stl_wg: Ops::lmem<true, true, 0, false>(*this, *ip); GT_NEXT;
s_stl_m:  Ops::lmem<true, true, 0, true>(*this, *ip); GT_NEXT;
s_ldp_w1: Ops::lmem<false, false, 1, false>(*this, *ip); GT_NEXT;
s_ldp_w2: Ops::lmem<false, false, 2, false>(*this, *ip); GT_NEXT;
s_ldp_w4: Ops::lmem<false, false, 4, false>(*this, *ip); GT_NEXT;
s_ldp_w8: Ops::lmem<false, false, 8, false>(*this, *ip); GT_NEXT;
s_ldp_wg: Ops::lmem<false, false, 0, false>(*this, *ip); GT_NEXT;
s_ldp_m:  Ops::lmem<false, false, 0, true>(*this, *ip); GT_NEXT;
s_stp_w1: Ops::lmem<true, false, 1, false>(*this, *ip); GT_NEXT;
s_stp_w2: Ops::lmem<true, false, 2, false>(*this, *ip); GT_NEXT;
s_stp_w4: Ops::lmem<true, false, 4, false>(*this, *ip); GT_NEXT;
s_stp_w8: Ops::lmem<true, false, 8, false>(*this, *ip); GT_NEXT;
s_stp_wg: Ops::lmem<true, false, 0, false>(*this, *ip); GT_NEXT;
s_stp_m:  Ops::lmem<true, false, 0, true>(*this, *ip); GT_NEXT;
s_vadd_vv: Ops::vbin<Op::VAdd, false, false>(*this, *ip); GT_NEXT;
s_vadd_uv: Ops::vbin<Op::VAdd, true, false>(*this, *ip); GT_NEXT;
s_vadd_vu: Ops::vbin<Op::VAdd, false, true>(*this, *ip); GT_NEXT;
s_vadd_uu: Ops::vbin<Op::VAdd, true, true>(*this, *ip); GT_NEXT;
s_vsub_vv: Ops::vbin<Op::VSub, false, false>(*this, *ip); GT_NEXT;
s_vsub_uv: Ops::vbin<Op::VSub, true, false>(*this, *ip); GT_NEXT;
s_vsub_vu: Ops::vbin<Op::VSub, false, true>(*this, *ip); GT_NEXT;
s_vsub_uu: Ops::vbin<Op::VSub, true, true>(*this, *ip); GT_NEXT;
s_vmul_vv: Ops::vbin<Op::VMul, false, false>(*this, *ip); GT_NEXT;
s_vmul_uv: Ops::vbin<Op::VMul, true, false>(*this, *ip); GT_NEXT;
s_vmul_vu: Ops::vbin<Op::VMul, false, true>(*this, *ip); GT_NEXT;
s_vmul_uu: Ops::vbin<Op::VMul, true, true>(*this, *ip); GT_NEXT;
s_vlt_vv: Ops::vbin<Op::VLt, false, false>(*this, *ip); GT_NEXT;
s_vlt_uv: Ops::vbin<Op::VLt, true, false>(*this, *ip); GT_NEXT;
s_vlt_vu: Ops::vbin<Op::VLt, false, true>(*this, *ip); GT_NEXT;
s_vlt_uu: Ops::vbin<Op::VLt, true, true>(*this, *ip); GT_NEXT;
s_vand_vv: Ops::vbin<Op::VAnd, false, false>(*this, *ip); GT_NEXT;
s_vand_uv: Ops::vbin<Op::VAnd, true, false>(*this, *ip); GT_NEXT;
s_vand_vu: Ops::vbin<Op::VAnd, false, true>(*this, *ip); GT_NEXT;
s_vand_uu: Ops::vbin<Op::VAnd, true, true>(*this, *ip); GT_NEXT;
#undef GT_NEXT
}

}  // namespace gemmtune::ir
