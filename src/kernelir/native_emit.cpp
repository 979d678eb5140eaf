// Bytecode -> specialized C++ translator for the native backend.
//
// The emitter walks the CompiledKernel instruction stream once and prints
// one C++ block per instruction, mirroring vm.cpp's semantics op for op:
// the same evaluation order, the same counter increments, the same error
// messages. Every operand field (register slots, lane counts, array
// offsets, immediates, flags) is printed as a literal, so the host
// compiler sees straight-line code over flat arrays with constant strides
// — the per-instruction dispatch and operand resolution the VM pays at
// run time all happens here, at emit time. Jumps become `goto L<n>;` with
// labels only at jump targets; each instruction body lives in its own
// braces so no goto crosses an initialization.
//
// Floating-point identity with the host-built backends is preserved by
// construction: arithmetic is emitted as the same double expressions the
// VM evaluates (single-precision rounding as a (double)(float)(...) cast),
// constants are reproduced bit-exactly from their IEEE-754 payloads, and
// the JIT compiles with -ffp-contract=off so the host compiler cannot
// fuse a*b+c into an fma the interpreter didn't perform.
//
// Slab layout: floating registers and private arrays are lane-major. Slot
// `s` of work-item `t` lives at `s*SN + t`, where lane l of the register
// with base b is slot b + l and element e of the private slab is slot e
// (the VM keeps the items' lanes together instead). The slot stride SN is
// NI plus one cache line, so the slots one chunk of items touches spread
// over the cache sets instead of aliasing when NI is a power of two.
//
// Code outside regions (below) runs instruction-outer: every per-item op
// is a set of unit-stride runs over the work-items, whatever the kernel's
// own vector width. Consecutive unmasked per-item ops (see item_op) are
// merged into one pass over the items, printed as chunks of the host
// vector width plus a scalar tail. Work-items never share a register or
// private slot, and each item still runs its instructions and lanes in
// program order, so the reordering across items is invisible: registers
// are not observable (only buffers, counters and error text are). Local
// stores (items may hit the same address) and global stores (a faulting
// launch must leave the VM's partial stores) stay per-item loops in item
// order, as do masked ops.
//
// Regions: a store-free stretch of bytecode — no global or local store, no
// barrier, mask or loop-bound test — that holds a uniform loop (the GEMM
// k-loop) runs item-chunk-outer instead, when the work-group shape is a
// compile-time constant (see collect_regions). A loop over chunks of P
// work-items goes outside; the region's instructions go inside, on C++
// locals the host compiler keeps in registers: f-registers, constant-
// index private-array segments, varying integers and the uniform
// registers the region writes (every chunk computes the same uniform
// values). A chunk packs P = host width / vw items × vw lanes into one
// host vector, item j's lane l at element j*vw + l, so the C tile is a
// handful of vector locals across a whole Kwg block. The chunk's items
// are consecutive along the local id that makes the most of the region's
// loads uniform across the chunk (one scalar load and a broadcast) or
// unit-stride (one vector load), from the affine form of each address
// over the local ids; other addresses gather. Values the same for every
// item of the chunk stay per-lane scalars. Slots live into the region
// load from the slabs at its entry and slots live after it store back at
// its exit (a liveness pass over the bytecode), so the code around a
// region is unchanged. Reordering across items is invisible for the
// reason above, and a region has no stores to undo when it faults: each
// chunk records its first fault keyed by (backward jumps taken,
// instruction, item), the lockstep VM's execution order, and the least
// one is raised after the chunk loop — the fault the VM raises first.
//
// In the vector chunks, f32 rounding is an element-wise
// double->float->double conversion pair — the narrowing is pinned per
// element, so no compiler pass can re-associate it and every lane still
// rounds exactly like the VM.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/native.hpp"

namespace gemmtune::ir {

namespace {

/// Escapes a string into a C++ string-literal body (quotes, backslashes,
/// and non-printable bytes as fixed-width octal so following characters
/// can't extend the escape).
std::string cstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (c >= 0x20 && c < 0x7f) {
      out += ch;
    } else {
      out += strf("\\%03o", c);
    }
  }
  out += '"';
  return out;
}

/// True when a lane count can be a GCC vector width (power of two, up to
/// 16 doubles — 128 bytes, which GCC synthesizes on any target).
bool vectorizable_width(int w) {
  return w == 2 || w == 4 || w == 8 || w == 16;
}

class Emitter {
 public:
  Emitter(const Kernel& k, const CompiledKernel& p, int simd_width)
      : k_(k),
        p_(p),
        simd_(simd_width),
        ni_const_(k.reqd_local[0] > 0 ? k.reqd_local[0] * k.reqd_local[1]
                                      : 0) {
    check(vectorizable_width(simd_),
          strf("native emit: unsupported vector width %d", simd_));
  }

  std::string run() {
    collect_labels();
    collect_zero_elisions();
    collect_fusions();
    collect_regions();
    prologue();
    auto next_region = regions_.begin();
    for (std::size_t i = 0; i < p_.code.size(); ++i) {
      if (is_target_[i]) {
        flush();  // a jump may enter here
        line(strf("L%zu:;", i));
      }
      if (next_region != regions_.end() && next_region->s == i) {
        flush();
        emit_region(*next_region);
        i = next_region->e - 1;
        ++next_region;
        continue;
      }
      if (fused_skip_.count(i) != 0) continue;  // folded into the next insn
      const Insn& in = p_.code[i];
      const auto f = fused_.find(i);
      const Insn* prod = f != fused_.end() ? &p_.code[f->second] : nullptr;
      if (item_op(in) && (prod == nullptr || item_op(*prod))) {
        add_item(prod, in);
        continue;
      }
      flush();
      if (prod != nullptr) {
        emit_fused_copy(*prod, in);  // into a local array: item order
      } else {
        emit_insn(in, i);
      }
    }
    flush();
    // A well-formed program ends in Halt, but guard the fall-through.
    line("goto L_done;");
    epilogue();
    return std::move(out_);
  }

 private:
  /// Shape of one f-register across the program (collect_fshapes).
  struct FShape {
    int stride = 0;    ///< per-item slot stride the VM addresses it with
    int width = 0;     ///< lanes any access reaches (zero fills aside)
    bool bad = false;  ///< ambiguous layout: never held in a chunk local
  };
  /// Affine form of a varying integer register (collect_affine).
  struct Aff {
    int st = 0;                   ///< 0: no writer seen, 1: affine, 2: unknown
    std::int64_t c[2] = {0, 0};   ///< coefficients of local id x and y
    bool has_k = false;           ///< the value is the constant k
    std::int64_t k = 0;
  };
  /// A value a chunk-outer region keeps in a C++ local: an f-register
  /// (kind 0, base a), a segment of a private array (kind 1, array a,
  /// segment b), a varying integer register (kind 2, register a), or one
  /// block-local value of f-register a, written at instruction b and read
  /// only before the next write in the same straight line (kind 3).
  struct ObjKey {
    int kind;
    std::int32_t a;
    std::int32_t b;
    bool operator<(const ObjKey& o) const {
      return std::tie(kind, a, b) < std::tie(o.kind, o.a, o.b);
    }
  };
  struct ObjInfo {
    /// Differs across the chunk's items: one vector of P items. Else one
    /// scalar — a varying integer register with a known affine form keeps
    /// item 0's value, item j's being that plus j*c.
    bool v = false;
    std::int64_t c = 0;
    bool written = false;  ///< some region instruction writes it
    bool load = false;     ///< loaded from its slab at region entry
    bool store = false;    ///< stored back to its slab at region exit
  };
  /// A store-free stretch of bytecode run chunk-outer (see the file
  /// comment).
  struct Region {
    std::size_t s = 0, e = 0;  ///< instructions [s, e); e is the only exit
    int P = 1;                 ///< work-items per chunk
    int d = 0;                 ///< the chunk's items differ in local id d
    std::map<ObjKey, ObjInfo> objs;
    std::set<std::int32_t> uw;     ///< uniform registers the region writes
    std::set<std::int32_t> uw_in, uw_out;  ///< ... live at entry / exit
    std::set<std::size_t> labels;  ///< jump targets inside the region
    /// The object each f-register operand reads / writes, by (pc, base).
    std::map<std::pair<std::size_t, std::int32_t>, ObjKey> fread, fwrite;
  };

  // ---- small formatting helpers ---------------------------------------------

  void line(const std::string& s) {
    out_ += "  ";
    out_ += s;
    out_ += '\n';
  }
  void raw(const std::string& s) { out_ += s; }

  static std::string imm64(std::int64_t v) {
    return strf("%lldLL", static_cast<long long>(v));
  }
  /// A uniform register: its slot, or inside a region that writes it the
  /// chunk's own copy.
  std::string u(std::int32_t r) const {
    return cur_ != nullptr && cur_->uw.count(r) != 0 ? strf("U%d", r)
                                                     : strf("u[%d]", r);
  }
  static std::string vi_ptr(std::int32_t r) {
    return strf("(vi + %d * NI)", r);
  }

  /// The lane-major slab index: the run of slot `s` over the work-items
  /// starts at `slab + s*SN`, and item t's element is that run's [t].
  static std::string slot_run(const std::string& slab, long long s) {
    return strf("(%s + %lld * SN)", slab.c_str(), s);
  }
  static std::string slot_run(const std::string& slab, const std::string& s) {
    return "(" + slab + " + (" + s + ") * SN)";
  }

  // Chunk expressions for pass bodies: `v` items starting at `t` as one
  // host vector, or the single item `t` when v == 0. `fn` names the
  // vector helper: the integer slab (vi) uses ldi/sti/spli.
  static std::string ld(int v, const std::string& p, const char* fn = "ld") {
    return v > 0 ? strf("%s%d(%s + t)", fn, v, p.c_str()) : p + "[t]";
  }
  static std::string st(int v, const std::string& p, const std::string& e,
                        const char* fn = "st") {
    return v > 0 ? strf("%s%d(%s + t, %s); ", fn, v, p.c_str(), e.c_str())
                 : p + "[t] = " + e + "; ";
  }
  static std::string spl(int v, const std::string& x,
                         const char* fn = "spl") {
    return v > 0 ? strf("%s%d(%s)", fn, v, x.c_str()) : x;
  }
  /// Wraps an arithmetic result in the f32 storage round when `on`.
  static std::string rnd(int v, bool on, const std::string& e) {
    if (!on) return "(" + e + ")";
    return v > 0 ? strf("rnd%d(%s)", v, e.c_str())
                 : "(double)(float)(" + e + ")";
  }
  static std::string vtype(int v) {
    return v > 0 ? strf("vd%d", v) : "double";
  }

  /// Prints one pass over the work-items: `body(v)` returns the
  /// statements for the chunk at `t` (see ld/st). The scalar tail is left
  /// out when the work-group size is a compile-time multiple of the
  /// vector width.
  template <typename Body>
  void pass(const Body& body) {
    line("{ long long t = 0;");
    line(strf("  for (; t + %d <= NI; t += %d) { ", simd_, simd_) +
         body(simd_) + "}");
    if (ni_const_ == 0 || ni_const_ % simd_ != 0)
      line("  for (; t < NI; ++t) { " + body(0) + "}");
    line("}");
  }

  /// Opens a `for (t ...)` over the work-items in item order, with the
  /// mask test when the instruction honours divergence.
  static std::string t_loop_open(bool masked) {
    std::string s = "for (long long t = 0; t < NI; ++t) { ";
    if (masked) s += "if (!mask[t]) continue; ";
    return s;
  }

  /// `snprintf` into err + jump to the failure label. `fmt` is a literal
  /// (already escaped); `args` are pre-formatted C++ expressions.
  /// Inside a region (fault_key_ set) the fault is recorded instead: the
  /// message is written only when its (backward jumps, pc, item) key is
  /// the least so far, and the chunk is abandoned.
  std::string fail_stmt(const std::string& fmt,
                        const std::vector<std::string>& args) {
    std::string s = "{ ";
    if (!fault_key_.empty()) s += "if (first_fault(fk, " + fault_key_ + ")) ";
    s += "std::snprintf(err, (std::size_t)err_cap, " + fmt;
    for (const auto& a : args) s += ", " + a;
    s += fault_key_.empty() ? "); goto L_fail; }"
                            : strf("); goto R%zu_n; }", cur_->s);
    return s;
  }
  /// Failure with a fixed message (message passed as data, not format).
  std::string fail_msg(const std::string& msg) {
    return fail_stmt("\"%s\"", {cstr(msg)});
  }

  /// Built-in value as a C++ expression (uniform part; aux = fn*2 + dim).
  std::string builtin_expr(int fn_dim) const {
    const int dim = fn_dim & 1;
    const auto fn = static_cast<BuiltinFn>(fn_dim >> 1);
    switch (fn) {
      case BuiltinFn::GroupId:
        return dim == 0 ? "gx" : "gy";
      case BuiltinFn::LocalSize:
        return dim == 0 ? "LSX" : "LSY";
      case BuiltinFn::NumGroups:
        return dim == 0 ? "(global0 / LSX)" : "(global1 / LSY)";
      default:
        break;
    }
    fail("native emit: bad uniform builtin");
  }

  void collect_labels() {
    is_target_.assign(p_.code.size() + 1, false);
    for (const Insn& in : p_.code) {
      switch (in.op) {
        case Op::Jmp:
        case Op::JzU:
        case Op::JgeU:
        case Op::JNone:
        case Op::ForCheckV:
          check(in.imm >= 0 &&
                    in.imm <= static_cast<std::int64_t>(p_.code.size()),
                "native emit: jump target out of range");
          is_target_[static_cast<std::size_t>(in.imm)] = true;
          break;
        default:
          break;
      }
    }
  }

  /// Finds f-registers whose every writer is a SplatLaneP or an FMov of
  /// one identical shape (same written-lane count n < register width dw)
  /// and that live inside the per-group zeroed slab prefix. Their upper
  /// lanes are zero at every program point — the memset establishes it
  /// and each write re-establishes it — so the per-write zero-fill only
  /// ever rewrites zeros and can be dropped. This matters: GEMM inner
  /// loops widen each scalar A element into a 16-lane variable before the
  /// FmaPP steps read its lane 0, and the dead zero stores otherwise
  /// outnumber the multiply-adds.
  void collect_zero_elisions() {
    std::map<std::int32_t, std::pair<int, int>> shape;  // base -> (n, dw)
    std::set<std::int32_t> bad;
    for (const Insn& in : p_.code) {
      switch (in.op) {
        case Op::SplatLaneP:
        case Op::FMov: {
          const auto s = std::make_pair(static_cast<int>(in.lanes),
                                        static_cast<int>(in.b));
          const auto [it, fresh] = shape.emplace(in.dst, s);
          if (!fresh && it->second != s) bad.insert(in.dst);
          break;
        }
        // Every other way an f-register can be written disqualifies it.
        case Op::FConst:
        case Op::FArg:
        case Op::FSplat:
        case Op::FLane:
        case Op::FAdd:
        case Op::FSub:
        case Op::FMul:
        case Op::FMad:
        case Op::LoadG:
        case Op::LoadL:
        case Op::LoadP:
          bad.insert(in.dst);
          break;
        default:
          break;
      }
    }
    for (const auto& [base, s] : shape) {
      if (bad.count(base) != 0) continue;
      if (s.first >= s.second) continue;            // no fill to elide
      if (base + s.second > p_.n_vf_vars) continue;  // outside zeroed prefix
      zero_elide_.insert(base);
    }
  }

  /// Appends the f-register bases instruction `in` reads.
  static void freg_reads(const Insn& in, std::vector<std::int32_t>* out) {
    switch (in.op) {
      case Op::FMov:
      case Op::FSplat:
      case Op::FLane:
        out->push_back(in.a);
        break;
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
        out->push_back(in.a);
        out->push_back(in.b);
        break;
      case Op::FMad:
        out->push_back(in.a);
        out->push_back(in.b);
        out->push_back(in.c);
        break;
      case Op::FmaPP:
      case Op::StoreG:
      case Op::StoreL:
      case Op::StoreP:
        out->push_back(in.c);
        break;
      default:
        break;
    }
  }

  /// Finds producer/consumer pairs whose intermediate register is dead —
  /// SplatLaneP feeding the adjacent FmaPP, and a local/private/global
  /// load feeding the adjacent local/private store. Registers are not
  /// observable (only buffers, counters and error text are), so when
  /// every read of the intermediate register is one of these adjacent
  /// consumers, the producer is folded into the consumer: the FmaPP
  /// broadcasts the splat source directly, and the load/store pair
  /// becomes one copy loop without the register round-trip. Fusing needs
  /// the consumer to not be a jump target (entering mid-pair would skip
  /// the producer). A copy within one array is never fused: the VM loads
  /// every lane of every item before the first store, and the fused copy
  /// interleaves them, which an overlapping range could observe (distinct
  /// arrays occupy disjoint slab ranges, and globals are load-only here).
  void collect_fusions() {
    std::map<std::int32_t, std::vector<std::size_t>> cand;
    for (std::size_t i = 0; i + 1 < p_.code.size(); ++i) {
      if (is_target_[i + 1]) continue;
      const Insn& a = p_.code[i];
      const Insn& b = p_.code[i + 1];
      if (a.op == Op::SplatLaneP && b.op == Op::FmaPP && b.c == a.dst &&
          (b.aux >> 3) == a.b && b.lanes <= a.lanes) {
        cand[a.dst].push_back(i);
        continue;
      }
      const bool a_load = a.op == Op::LoadL || a.op == Op::LoadP ||
                          (a.op == Op::LoadG && !(a.aux & kElemF32));
      const bool b_store = b.op == Op::StoreL || b.op == Op::StoreP;
      if (a_load && b_store && b.c == a.dst && b.lanes == a.lanes &&
          !(a.flags & kMasked) && !(b.flags & kMasked)) {
        if (a.op != Op::LoadG && a.a == b.a) continue;  // may overlap
        cand[a.dst].push_back(i);
      }
    }
    for (const auto& [reg, producers] : cand) {
      std::set<std::size_t> consumers;
      for (const std::size_t i : producers) consumers.insert(i + 1);
      bool dead = true;
      for (std::size_t j = 0; j < p_.code.size() && dead; ++j) {
        std::vector<std::int32_t> rs;
        freg_reads(p_.code[j], &rs);
        for (const std::int32_t r : rs)
          if (r == reg && consumers.count(j) == 0) {
            dead = false;
            break;
          }
      }
      if (!dead) continue;
      for (const std::size_t i : producers) {
        fused_skip_.insert(i);
        fused_[i + 1] = i;
      }
    }
  }

  // ---- prologue / epilogue --------------------------------------------------

  void prologue() {
    raw(strf("// Generated by the gemmtune native backend (emitter v4, "
             "simd w=%d) for\n",
             simd_));
    raw("// kernel '" + k_.name + "'. Mirrors kernelir/vm.cpp semantics.\n");
    raw("#include <cstddef>\n#include <cstdio>\n#include <cstring>\n\n");
    // Vectors of 2 to 16 doubles (GCC/Clang vector extensions): the
    // lane-major passes use the host width, the regions' chunk locals any
    // of them. Loads and stores go through memcpy so no pointer needs
    // alignment; rndN converts every lane double->float->double
    // individually, which is exactly the VM's (double)(float) rounding
    // chain (GCC 12 splits the generic 8-lane widening into 128-bit
    // pieces, so AVX-512 uses the instructions directly). The helpers are
    // forced inline: a whole kernel is one function, past the size where
    // GCC stops inlining on its own.
    const auto def = [this](const std::string& d) {
      raw("inline __attribute__((always_inline)) " + d + "\n");
    };
    const auto lanes = [](int n, const auto& elem) {
      std::string l;
      for (int j = 0; j < n; ++j) l += (j ? ", " : "") + elem(j);
      return l;
    };
    if (simd_ == 8)
      raw("#if defined(__AVX512F__)\n#include <immintrin.h>\n#endif\n");
    raw("namespace {\n");
    raw("constexpr long long kNoFault = 0x7fffffffffffffffLL;\n");
    // Orders region faults by (backward jumps taken, instruction, item):
    // true, updating the key, when the new fault comes first.
    raw("inline bool first_fault(long long* k, long long bj, long long pc,"
        " long long t) {\n"
        "  if (bj > k[0] || (bj == k[0] && (pc > k[1] || (pc == k[1] &&"
        " t >= k[2])))) return false;\n"
        "  k[0] = bj; k[1] = pc; k[2] = t; return true;\n}\n");
    // The first of n items whose w-lane access at a[j] leaves [0, len):
    // the out-of-line slow path of a region's bounds check.
    raw("__attribute__((noinline, cold)) long long first_oob(const long long*"
        " a, long long n, long long w, long long len) {\n"
        "  for (long long j = 0; j < n; ++j) if (a[j] < 0 || a[j] + w > len)"
        " return j;\n  return n;\n}\n");
    for (const int s : {2, 4, 8, 16}) {
      const std::string vd = strf("vd%d", s), vl = strf("vl%d", s),
                        vs = strf("vs%d", s);
      raw(strf("typedef double %s __attribute__((vector_size(%d)));\n",
               vd.c_str(), 8 * s));
      raw(strf("typedef float %s __attribute__((vector_size(%d)));\n",
               vs.c_str(), 4 * s));
      raw(strf("typedef long long %s __attribute__((vector_size(%d)));\n",
               vl.c_str(), 8 * s));
      def(strf("%s ld%d(const double* p) ", vd.c_str(), s) + "{ " + vd +
          " v; __builtin_memcpy(&v, p, sizeof v); return v; }");
      if (s == 8 && simd_ == 8) {
        raw("#if defined(__AVX512F__)\n");
        def("vd8 ldf8(const float* p) { return (vd8)_mm512_cvtps_pd("
            "_mm256_loadu_ps(p)); }");
        raw("#else\n");
      }
      def(strf("%s ldf%d(const float* p) ", vd.c_str(), s) + "{ " + vs +
          " v; __builtin_memcpy(&v, p, sizeof v); return "
          "__builtin_convertvector(v, " + vd + "); }");
      if (s == 8 && simd_ == 8) raw("#endif\n");
      def(strf("void st%d(double* p, %s v) ", s, vd.c_str()) +
          "{ __builtin_memcpy(p, &v, sizeof v); }");
      if (s == 8 && simd_ == 8) {
        raw("#if defined(__AVX512F__)\n");
        def("vd8 rnd8(vd8 v) { return (vd8)_mm512_cvtps_pd("
            "_mm512_cvtpd_ps((__m512d)v)); }");
        raw("#else\n");
      }
      def(strf("%s rnd%d(%s v) ", vd.c_str(), s, vd.c_str()) +
          strf("{ return __builtin_convertvector(__builtin_convertvector(v, "
               "%s), %s); }",
               vs.c_str(), vd.c_str()));
      if (s == 8 && simd_ == 8) raw("#endif\n");
      def(strf("%s spl%d(double x) { return %s{", vd.c_str(), s, vd.c_str()) +
          lanes(s, [](int) { return std::string("x"); }) + "}; }");
      def(strf("%s spli%d(long long x) { return %s{", vl.c_str(), s,
               vl.c_str()) +
          lanes(s, [](int) { return std::string("x"); }) + "}; }");
      def(strf("%s ldi%d(const long long* p) ", vl.c_str(), s) + "{ " + vl +
          " v; __builtin_memcpy(&v, p, sizeof v); return v; }");
      def(strf("void sti%d(long long* p, %s v) ", s, vl.c_str()) +
          "{ __builtin_memcpy(p, &v, sizeof v); }");
    }
    // The gathers of the lane-major passes read one element per item at
    // that item's own index (`gatp`/`sctp`: a private slot, whose run for
    // item j is offset by j).
    const int s = simd_;
    const std::string vd = strf("vd%d", s);
    def(strf("%s gat%d(const double* p, const long long* i) { return %s{",
             vd.c_str(), s, vd.c_str()) +
        lanes(s, [](int j) { return strf("p[i[%d]]", j); }) + "}; }");
    def(strf("%s gatf%d(const float* p, const long long* i) { return %s{",
             vd.c_str(), s, vd.c_str()) +
        lanes(s, [](int j) { return strf("(double)p[i[%d]]", j); }) + "}; }");
    def(strf("%s gatp%d(const double* p, const long long* i, long long ni) "
             "{ return %s{",
             vd.c_str(), s, vd.c_str()) +
        lanes(s, [](int j) { return strf("p[i[%d] * ni + %d]", j, j); }) +
        "}; }");
    std::string sct;
    for (int j = 0; j < s; ++j)
      sct += strf(" p[i[%d] * ni + %d] = v[%d];", j, j, j);
    def(strf("void sctp%d(double* p, const long long* i, long long ni, "
             "%s v) {",
             s, vd.c_str()) +
        sct + " }");
    raw("}  // namespace\n\n");
    // Bit-exact floating constant pool, materialized at dlopen time.
    if (!p_.fpool.empty()) {
      raw("namespace {\n");
      raw(strf("const unsigned long long kFpoolBits[%zu] = {\n",
               p_.fpool.size()));
      for (std::size_t i = 0; i < p_.fpool.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &p_.fpool[i], sizeof bits);
        raw(strf("  0x%016" PRIx64 "ull,\n", bits));
      }
      raw("};\n");
      raw(strf("struct FpoolInit {\n  double v[%zu];\n"
               "  FpoolInit() { std::memcpy(v, kFpoolBits, sizeof v); }\n"
               "};\nconst FpoolInit kFpool;\n}  // namespace\n\n",
               p_.fpool.size()));
    }
    raw("extern \"C\" long long gemmtune_native_entry_v1(\n"
        "    long long group_begin, long long group_end,\n"
        "    long long global0, long long global1,\n"
        "    long long local0, long long local1,\n"
        "    double* const* arg_f64, float* const* arg_f32,\n"
        "    const long long* arg_elems, const long long* arg_i,\n"
        "    const double* arg_f,\n"
        "    unsigned long long* counters, char* err, long long err_cap)"
        " {\n");
    line("(void)global0; (void)global1; (void)local0; (void)local1;");
    line("(void)arg_f64; (void)arg_f32; (void)arg_elems; (void)arg_i;");
    line("(void)arg_f; (void)err; (void)err_cap;");
    // Geometry: bake the work-group shape when the kernel requires one
    // (the launch plan already validated local == reqd_local).
    if (k_.reqd_local[0] > 0) {
      line(strf("constexpr long long LSX = %lld, LSY = %lld;",
                static_cast<long long>(k_.reqd_local[0]),
                static_cast<long long>(k_.reqd_local[1])));
      line("constexpr long long NI = LSX * LSY, SN = NI + 8;");
    } else {
      line("const long long LSX = local0, LSY = local1;");
      line("const long long NI = LSX * LSY, SN = NI + 8;");
    }
    line("(void)LSY;");
    line("const long long ngx = global0 / LSX;");
    // Scratch slabs: the VM's register-file sizes (lane-major, see the
    // file comment), heap-allocated once per call and reused across the
    // whole group range.
    line(strf("long long* const u = new long long[%d];",
              p_.n_u > 0 ? p_.n_u : 1));
    line(strf("long long* const vi = new long long[(std::size_t)(%d * NI)"
              " + 1];",
              p_.n_vi));
    line(strf("double* const vf = new double[(std::size_t)(%d * SN) + 1];",
              p_.n_vf));
    line(strf("double* const parr = new double[(std::size_t)(%lld * SN)"
              " + 1];",
              static_cast<long long>(p_.parr_doubles)));
    line(strf("double* const larr = new double[%lld];",
              static_cast<long long>(p_.larr_doubles) + 1));
    line("unsigned char* const mask = new unsigned char[(std::size_t)NI];");
    const int depth = p_.max_mask_depth > 0 ? p_.max_mask_depth : 1;
    line(strf("unsigned char* const mask_saved = "
              "new unsigned char[(std::size_t)(%d * NI)];",
              depth));
    line(strf("int mask_cond[%d] = {0};", depth));
    line(strf("long long mask_saved_active[%d] = {0};", depth));
    line("(void)mask_cond; (void)mask_saved_active; (void)mask_saved;");
    line("long long rc = 0;");
    line("unsigned long long c_flops = 0, c_mads = 0, c_gld = 0,"
         " c_gst = 0, c_lld = 0, c_lst = 0, c_bar = 0;");
    line("for (long long g = group_begin; g < group_end; ++g) {");
    line("  const long long gx = g % ngx; (void)gx;");
    line("  const long long gy = g / ngx; (void)gy;");
    // Per-group reset, exactly the VM's: all uniforms, the variable
    // prefixes of the vi/vf slabs, the whole private/local slabs, mask 1.
    line(strf("  std::memset(u, 0, sizeof(long long) * %d);",
              p_.n_u > 0 ? p_.n_u : 1));
    if (p_.n_vi_vars > 0)
      line(strf("  std::memset(vi, 0, sizeof(long long) * "
                "(std::size_t)(%d * NI));",
                p_.n_vi_vars));
    if (p_.n_vf_vars > 0)
      line(strf("  std::memset(vf, 0, sizeof(double) * "
                "(std::size_t)(%d * SN));",
                p_.n_vf_vars));
    if (p_.parr_doubles > 0)
      line(strf("  std::memset(parr, 0, sizeof(double) * "
                "(std::size_t)(%lld * SN));",
                static_cast<long long>(p_.parr_doubles)));
    if (p_.larr_doubles > 0)
      line(strf("  std::memset(larr, 0, sizeof(double) * %lld);",
                static_cast<long long>(p_.larr_doubles)));
    line("  std::memset(mask, 1, (std::size_t)NI);");
    line("  long long active = NI; (void)active;");
    line("  long long mask_depth = 0; (void)mask_depth;");
  }

  void epilogue() {
    line("L_done:;");
    line("}");  // group loop
    line("goto L_cleanup;");
    line("L_fail:;");
    line("rc = 1;");
    line("L_cleanup:;");
    line("counters[0] += c_flops; counters[1] += c_mads;");
    line("counters[2] += c_gld; counters[3] += c_gst;");
    line("counters[4] += c_lld; counters[5] += c_lst;");
    line("counters[6] += c_bar;");
    line("delete[] u; delete[] vi; delete[] vf; delete[] parr;");
    line("delete[] larr; delete[] mask; delete[] mask_saved;");
    line("return rc;");
    raw("}\n");
  }

  // ---- merged passes --------------------------------------------------------

  /// True when `in` can run inside a merged pass: unmasked, each item
  /// touches only its own register and private slots (besides reading
  /// local, global and uniform values, which no item op writes), and its
  /// only runtime check is a bounds check hoistable ahead of the pass.
  static bool item_op(const Insn& in) {
    if (in.flags & kMasked) return false;
    switch (in.op) {
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd:
      case Op::VMovU:
      case Op::VMov:
      case Op::FConst:
      case Op::FArg:
      case Op::FMov:
      case Op::FSplat:
      case Op::FLane:
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad:
      case Op::FmaPP:
      case Op::SplatLaneP:
      case Op::LoadG:
      case Op::LoadL:
      case Op::LoadP:
      case Op::StoreP:
        return true;
      default:
        return false;
    }
  }

  /// Adds an item op (with its fused producer, if any) to the open group.
  /// A hoisted check must see the address registers as they are when its
  /// instruction runs, so a check reading a varying register an earlier
  /// group member writes closes the group first.
  void add_item(const Insn* prod, const Insn& in) {
    for (const Insn* m : {prod, &in}) {
      if (m == nullptr || !has_check(*m) || uniform_addr(*m)) continue;
      if (group_vi_.count(m->b) != 0) {
        flush();
        break;
      }
    }
    group_.push_back({prod, &in});
    if (in.op >= Op::VBuiltin && in.op <= Op::VMov) group_vi_.insert(in.dst);
  }

  /// Prints the open group as one pass over the work-items: every
  /// member's declarations and hoisted checks in program order (the first
  /// failing check is the one the VM reports; everything the members
  /// write before it is scratch), then the members' per-item bodies in
  /// program order — each item still runs its instructions in order, and
  /// items share nothing a member writes — then the counters.
  void flush() {
    if (group_.empty()) return;
    line("{");
    for (std::size_t k = 0; k < group_.size(); ++k) {
      const Item& it = group_[k];
      if (it.prod != nullptr) {
        item_prep(*it.prod, strf("a%zu", k));
        item_prep(*it.in, strf("b%zu", k));
      } else {
        item_prep(*it.in, strf("%zu", k));
      }
    }
    pass([&](int v) {
      std::string s;
      for (std::size_t k = 0; k < group_.size(); ++k) {
        const Item& it = group_[k];
        s += it.prod != nullptr
                 ? fused_body(*it.prod, *it.in, v, strf("%zu", k))
                 : item_body(*it.in, v, strf("%zu", k));
      }
      return s;
    });
    for (const Item& it : group_) {
      const std::string c = item_count(*it.in) +
                            (it.prod != nullptr ? item_count(*it.prod) : "");
      if (!c.empty()) line(c);
    }
    line("}");
    group_.clear();
    group_vi_.clear();
  }

  static bool has_check(const Insn& in) {
    return in.op == Op::LoadG || in.op == Op::StoreG || in.op == Op::LoadL ||
           in.op == Op::StoreL || in.op == Op::LoadP || in.op == Op::StoreP;
  }

  /// Declarations and the hoisted bounds check of one group member.
  void item_prep(const Insn& in, const std::string& sfx) {
    if (in.op == Op::FArg) {
      line(strf("double x%s = arg_f[%d];", sfx.c_str(), in.a));
      if (in.aux & kRoundF32)
        line(strf("x%s = (double)(float)x%s;", sfx.c_str(), sfx.c_str()));
      return;
    }
    if (!has_check(in)) return;
    if (in.op == Op::LoadG) {
      const bool f32 = (in.aux & kElemF32) != 0;
      line(strf("const %s* const gp%s = %s[%d];", f32 ? "float" : "double",
                sfx.c_str(), f32 ? "arg_f32" : "arg_f64", in.a));
      line(strf("const long long en%s = arg_elems[%d];", sfx.c_str(), in.a));
    }
    emit_addr(in, sfx);
    emit_range_check(in, sfx);
  }

  /// Counter update for `items` work-items running `in` (one active item
  /// of a masked form when empty); "" when the op counts nothing.
  static std::string item_count(const Insn& in,
                                const std::string& items = "NI") {
    const bool per_item = items.empty();
    const auto add = [&](const char* c, int k) {
      return per_item ? strf("%s += %d; ", c, k)
                      : strf("%s += (unsigned long long)(%d * %s); ", c, k,
                             items.c_str());
    };
    const int w = in.lanes;
    switch (in.op) {
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
        return add("c_flops", w);
      case Op::FMad:
      case Op::FmaPP:
        return add("c_flops", 2 * w) +
               (per_item ? std::string("++c_mads; ")
                         : "c_mads += (unsigned long long)" + items + "; ");
      case Op::LoadG:
      case Op::StoreG:
        return add(in.op == Op::LoadG ? "c_gld" : "c_gst",
                   w * ((in.aux & kElemF32) ? 4 : 8));
      case Op::LoadL:
      case Op::StoreL:
        return add(in.op == Op::LoadL ? "c_lld" : "c_lst",
                   w * ((in.aux & kCount8) ? 8 : 4));
      default:
        return "";
    }
  }

  /// Per-item body of a group member for the chunk at `t` (see ld/st).
  std::string item_body(const Insn& in, int v, const std::string& sfx) {
    const int w = in.lanes;
    const std::string f = "vf";
    std::string s;
    switch (in.op) {
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd: {
        // Vector compares yield 0/-1 per lane, masked down to the 0/1 the
        // scalar ?: forms produce.
        const auto opnd = [&](bool uni, std::int32_t r) {
          return uni ? spl(v, u(r), "spli") : ld(v, vi_ptr(r), "ldi");
        };
        const std::string xa = opnd(in.flags & kAUni, in.a);
        const std::string xb = opnd(in.flags & kBUni, in.b);
        std::string e;
        switch (in.op) {
          case Op::VAdd: e = xa + " + " + xb; break;
          case Op::VSub: e = xa + " - " + xb; break;
          case Op::VMul: e = xa + " * " + xb; break;
          case Op::VLt:
            e = v > 0 ? "((" + xa + " < " + xb + ") & 1)"
                      : "((" + xa + " < " + xb + ") ? 1 : 0)";
            break;
          default:
            e = v > 0 ? "(((" + xa + " != 0) & (" + xb + " != 0)) & 1)"
                      : "((" + xa + " != 0 && " + xb + " != 0) ? 1 : 0)";
            break;
        }
        return st(v, vi_ptr(in.dst), e, "sti");
      }
      case Op::VMovU:
        return st(v, vi_ptr(in.dst), spl(v, u(in.a), "spli"), "sti");
      case Op::VMov:
        return st(v, vi_ptr(in.dst), ld(v, vi_ptr(in.a), "ldi"), "sti");
      case Op::FConst:
        for (int l = 0; l < w; ++l)
          s += st(v, slot_run(f, in.dst + l),
                  spl(v, strf("kFpool.v[%lld]",
                              static_cast<long long>(in.imm) + l)));
        return s;
      case Op::FArg:
        s = st(v, slot_run(f, in.dst), spl(v, "x" + sfx));
        for (int l = 1; l < w; ++l)
          s += st(v, slot_run(f, in.dst + l), spl(v, "0.0"));
        return s;
      case Op::FMov: {
        // Lanes [0, n) copy, lanes [n, dw) zero-fill (unless elided).
        const int dw = in.b;
        for (int l = 0; l < w; ++l)
          s += st(v, slot_run(f, in.dst + l), ld(v, slot_run(f, in.a + l)));
        if (zero_elide_.count(in.dst) == 0)
          for (int l = w; l < dw; ++l)
            s += st(v, slot_run(f, in.dst + l), spl(v, "0.0"));
        return s;
      }
      case Op::FSplat:
        s = "{ const " + vtype(v) + " x = " + ld(v, slot_run(f, in.a)) + "; ";
        for (int l = 0; l < w; ++l) s += st(v, slot_run(f, in.dst + l), "x");
        return s + "} ";
      case Op::FLane: {
        const auto ln = static_cast<int>(in.imm);
        return st(v, slot_run(f, in.dst),
                  ln < in.aux ? ld(v, slot_run(f, in.a + ln)) : spl(v, "0.0"));
      }
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad: {
        const bool f32 = (in.aux & kRoundF32) != 0;
        const char* op = in.op == Op::FAdd ? " + "
                         : in.op == Op::FSub ? " - "
                                             : " * ";
        for (int l = 0; l < w; ++l) {
          const auto at = [&](std::int32_t r) {
            return ld(v, slot_run(f, r + l));
          };
          s += st(v, slot_run(f, in.dst + l),
                  rnd(v, f32,
                      in.op == Op::FMad
                          ? at(in.a) + " * " + at(in.b) + " + " + at(in.c)
                          : at(in.a) + op + at(in.b)));
        }
        return s;
      }
      case Op::FmaPP: {
        const ArrayRef& cr = p_.arrays[static_cast<std::size_t>(in.a)];
        const ArrayRef& br = p_.arrays[static_cast<std::size_t>(in.b)];
        const bool f32 = (in.aux & kRoundF32) != 0;
        for (int l = 0; l < w; ++l) {
          const std::string cp = slot_run("parr", cr.offset + in.dst + l);
          s += st(v, cp,
                  rnd(v, f32,
                      ld(v, slot_run(f, in.c + l)) + " * " +
                          ld(v, slot_run("parr", br.offset + in.imm + l)) +
                          " + " + ld(v, cp)));
        }
        return s;
      }
      case Op::SplatLaneP: {
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        s = "{ const " + vtype(v) + " x = " +
            ld(v, slot_run("parr", ar.offset + in.imm)) + "; ";
        for (int l = 0; l < w; ++l) s += st(v, slot_run(f, in.dst + l), "x");
        if (zero_elide_.count(in.dst) == 0)
          for (int l = w; l < in.b; ++l)
            s += st(v, slot_run(f, in.dst + l), spl(v, "0.0"));
        return s + "} ";
      }
      case Op::LoadG:
      case Op::LoadL:
      case Op::LoadP:
        for (int l = 0; l < w; ++l)
          s += st(v, slot_run(f, in.dst + l), mem_elem(in, l, v, sfx));
        return s;
      case Op::StoreL:
      case Op::StoreP:
        for (int l = 0; l < w; ++l)
          s += mem_store(in, l, v, ld(v, slot_run(f, in.c + l)), sfx);
        return s;
      default:
        break;
    }
    fail(strf("native emit: opcode %d is not an item op",
              static_cast<int>(in.op)));
  }

  /// Per-item body of a fused producer/consumer pair (collect_fusions).
  /// SplatLaneP + FmaPP: the rank-1 update broadcasts the splat source
  /// directly — within one item the splat read still precedes the FmaPP
  /// write. Load + store: one copy without the register round-trip.
  std::string fused_body(const Insn& prod, const Insn& cons, int v,
                         const std::string& k) {
    if (prod.op != Op::SplatLaneP) {
      std::string s;
      for (int l = 0; l < cons.lanes; ++l)
        s += mem_store(cons, l, v, mem_elem(prod, l, v, "a" + k), "b" + k);
      return s;
    }
    const ArrayRef& sar = p_.arrays[static_cast<std::size_t>(prod.a)];
    const ArrayRef& cr = p_.arrays[static_cast<std::size_t>(cons.a)];
    const ArrayRef& br = p_.arrays[static_cast<std::size_t>(cons.b)];
    const bool f32 = (cons.aux & kRoundF32) != 0;
    std::string s = "{ const " + vtype(v) + " x = " +
                    ld(v, slot_run("parr", sar.offset + prod.imm)) + "; ";
    for (int l = 0; l < cons.lanes; ++l) {
      const std::string cp = slot_run("parr", cr.offset + cons.dst + l);
      s += st(v, cp,
              rnd(v, f32,
                  "x * " + ld(v, slot_run("parr", br.offset + cons.imm + l)) +
                      " + " + ld(v, cp)));
    }
    return s + "} ";
  }

  /// A fused load + local store: one copy loop in item order, both bounds
  /// checks hoisted (load check first — its failure message wins, exactly
  /// the VM's execution order).
  void emit_fused_copy(const Insn& ld_in, const Insn& st_in) {
    line("{");
    item_prep(ld_in, "a0");
    item_prep(st_in, "b0");
    line(t_loop_open(false) + fused_body(ld_in, st_in, 0, "0") + "}");
    line(item_count(ld_in) + item_count(st_in));
    line("}");
  }

  // ---- per-instruction translation (everything but item ops) ----------------

  void emit_insn(const Insn& in, std::size_t pc) {
    const bool masked = (in.flags & kMasked) != 0;
    const int w = in.lanes;
    switch (in.op) {
      case Op::Halt:
        line("goto L_done;");
        return;
      case Op::UConst:
        line(u(in.dst) + " = " + imm64(in.imm) + ";");
        return;
      case Op::UArg:
        line(u(in.dst) + strf(" = arg_i[%d];", in.a));
        return;
      case Op::UBuiltin:
        line(u(in.dst) + " = " + builtin_expr(in.aux) + ";");
        return;
      case Op::UAdd:
        line(u(in.dst) + " = " + u(in.a) + " + " + u(in.b) + ";");
        return;
      case Op::USub:
        line(u(in.dst) + " = " + u(in.a) + " - " + u(in.b) + ";");
        return;
      case Op::UMul:
        line(u(in.dst) + " = " + u(in.a) + " * " + u(in.b) + ";");
        return;
      case Op::UDiv:
      case Op::UMod: {
        const bool div = in.op == Op::UDiv;
        line("{ const long long d = " + u(in.b) + ";");
        line("  if (d == 0) " +
             fail_msg(div ? "interp: integer division by zero"
                          : "interp: integer modulo by zero"));
        line("  " + u(in.dst) + " = " + u(in.a) + (div ? " / d; }" : " % d; }"));
        return;
      }
      case Op::ULt:
        line(u(in.dst) + " = (" + u(in.a) + " < " + u(in.b) + ") ? 1 : 0;");
        return;
      case Op::UAnd:
        line(u(in.dst) + " = (" + u(in.a) + " != 0 && " + u(in.b) +
             " != 0) ? 1 : 0;");
        return;
      case Op::UMov:
        line(u(in.dst) + " = " + u(in.a) + ";");
        return;
      case Op::UStepCheck:
        line("if (" + u(in.a) + " <= 0) " + fail_msg("for: non-positive step"));
        return;
      case Op::VBuiltin: {
        const int dim = in.aux & 1;
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        std::string expr;
        if (fn == BuiltinFn::LocalId) {
          expr = dim == 0 ? "t % LSX" : "t / LSX";
        } else if (fn == BuiltinFn::GlobalId) {
          expr = dim == 0 ? "gx * LSX + t % LSX" : "gy * LSY + t / LSX";
        } else {
          expr = builtin_expr(in.aux);
        }
        line(t_loop_open(false) + vi_ptr(in.dst) + "[t] = " + expr + "; }");
        return;
      }
      case Op::VDiv:
      case Op::VMod: {
        const bool div = in.op == Op::VDiv;
        const auto opnd = [&](bool uni, std::int32_t r) {
          return uni ? u(r) : ld(0, vi_ptr(r));
        };
        line(t_loop_open(masked) + "const long long y = " +
             opnd(in.flags & kBUni, in.b) + "; if (y == 0) " +
             fail_msg(div ? "interp: integer division by zero"
                          : "interp: integer modulo by zero") +
             " " + vi_ptr(in.dst) + "[t] = " + opnd(in.flags & kAUni, in.a) +
             (div ? " / y; }" : " % y; }"));
        return;
      }
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd:
      case Op::VMovU:
      case Op::VMov:
      case Op::FMov:
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad:
        // Masked forms (the unmasked ones are item ops): per item, skipping
        // inactive items, counting per active item.
        line(t_loop_open(true) + item_body(in, 0, "") + item_count(in, "") +
             "}");
        return;
      case Op::FConst:
      case Op::FArg:
      case Op::FSplat:
      case Op::FLane:
      case Op::FmaPP:
      case Op::SplatLaneP:
        break;  // never masked, so always item ops
      case Op::LoadG:
      case Op::StoreG:
      case Op::LoadL:
      case Op::StoreL:
      case Op::LoadP:
      case Op::StoreP: {
        // Per item, in item order: the masked forms, checking each active
        // item before its copy, and the unmasked global and local stores.
        // Global stores stay interleaved even unmasked — a faulting launch
        // must leave the user's buffer with exactly the VM's partial
        // stores. Local stores keep item order (items may store to the
        // same element; the last one wins) but check up front, as they
        // write scratch only.
        const bool check_each = masked || in.op == Op::StoreG;
        line("{");
        if (in.op == Op::LoadG || in.op == Op::StoreG) {
          const bool f32 = (in.aux & kElemF32) != 0;
          line(strf("  %s* const gp = %s[%d];", f32 ? "float" : "double",
                    f32 ? "arg_f32" : "arg_f64", in.a));
          line(strf("  const long long en = arg_elems[%d];", in.a));
        }
        emit_addr(in, "");
        if (!check_each) emit_range_check(in, "");
        std::string body;
        if (check_each)
          body = "const long long idx = " + addr_expr(in, "") + "; if (" +
                 out_of_range(in, "") + ") " + mem_fails(in, "") + " ";
        if (in.op == Op::StoreG) {
          for (int l = 0; l < w; ++l)
            body += strf("gp[idx + %d] = %s", l,
                         (in.aux & kElemF32) ? "(float)" : "") +
                    ld(0, slot_run("vf", in.c + l)) + "; ";
        } else {
          body += item_body(in, 0, "");
        }
        line("  " + t_loop_open(masked) + body +
             (masked ? item_count(in, "") : "") + "}");
        if (!masked && !item_count(in).empty()) line("  " + item_count(in));
        line("}");
        return;
      }
      case Op::Jmp:
        line(strf("goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JzU:
        line("if (" + u(in.a) +
             strf(" == 0) goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JgeU:
        line("if (" + u(in.a) + " >= " + u(in.b) +
             strf(") goto L%lld;", static_cast<long long>(in.imm)));
        return;
      case Op::JNone:
        line(strf("if (active == 0) goto L%lld;",
                  static_cast<long long>(in.imm)));
        return;
      case Op::ForCheckV: {
        line("{ const long long* const a = " + vi_ptr(in.a) + ";");
        line("  const long long* const b = " + vi_ptr(in.b) + ";");
        line("  const long long* const c = " + vi_ptr(in.c) + ";");
        line("  long long first = -1;");
        line("  for (long long t = 0; t < NI; ++t)"
             " if (mask[t]) { first = t; break; }");
        line(strf("  if (first < 0) goto L%lld;",
                  static_cast<long long>(in.imm)));
        line("  const long long init = a[first], lim = b[first],"
             " stp = c[first];");
        line("  for (long long t = first; t < NI; ++t) {");
        line("    if (!mask[t]) continue;");
        line("    if (a[t] != init || b[t] != lim || c[t] != stp) " +
             fail_msg("for: non-uniform loop bounds across work-group"));
        line("  }");
        line("  if (stp <= 0) " + fail_msg("for: non-positive step"));
        line("  " + u(in.dst) + " = init;");
        line(strf("  u[%d] = lim;", in.dst + 1));
        line(strf("  u[%d] = stp; }", in.dst + 2));
        return;
      }
      case Op::MaskPush:
        line("{ std::memcpy(mask_saved + mask_depth * NI, mask,"
             " (std::size_t)NI);");
        line(strf("  mask_cond[mask_depth] = %d;", in.a));
        line("  mask_saved_active[mask_depth] = active;");
        line("  ++mask_depth;");
        line("  const long long* const c = " + vi_ptr(in.a) + ";");
        line("  long long n = 0;");
        line("  " + t_loop_open(false) +
             "mask[t] = (mask[t] && c[t] != 0) ? 1 : 0; n += mask[t]; }");
        line("  active = n; }");
        return;
      case Op::MaskFlip:
        line("{ const unsigned char* const sv ="
             " mask_saved + (mask_depth - 1) * NI;");
        line("  const long long* const c ="
             " vi + (long long)mask_cond[mask_depth - 1] * NI;");
        line("  long long n = 0;");
        line("  " + t_loop_open(false) +
             "mask[t] = (sv[t] && c[t] == 0) ? 1 : 0; n += mask[t]; }");
        line("  active = n; }");
        return;
      case Op::MaskPop:
        line("{ --mask_depth;");
        line("  std::memcpy(mask, mask_saved + mask_depth * NI,"
             " (std::size_t)NI);");
        line("  active = mask_saved_active[mask_depth]; }");
        return;
      case Op::Barrier:
        line("{ for (long long t = 0; t < NI; ++t) if (!mask[t]) " +
             fail_msg("barrier inside divergent control flow"));
        line("  ++c_bar; }");
        return;
      case Op::Throw:
        line(fail_msg(p_.messages[static_cast<std::size_t>(in.imm)]));
        return;
    }
    fail(strf("native emit: unhandled opcode %d at pc %zu",
              static_cast<int>(in.op), pc));
  }

  // ---- memory-op helpers ----------------------------------------------------

  /// Emits the hoisted declarations for a memory op's address operand.
  void emit_addr(const Insn& in, const std::string& sfx) {
    if (in.flags & kImmAddr) return;  // constant, inlined at use
    if (in.flags & kBUni) {
      line("const long long ua" + sfx + " = " + u(in.b) + ";");
    } else {
      line("const long long* const av" + sfx + " = " + vi_ptr(in.b) + ";");
    }
  }

  /// Per-item address expression matching emit_addr().
  static std::string addr_expr(const Insn& in, const std::string& sfx) {
    if (in.flags & kImmAddr) return imm64(in.imm);
    if (in.flags & kBUni) return "ua" + sfx;
    return "av" + sfx + "[t]";
  }
  static bool uniform_addr(const Insn& in) {
    return (in.flags & (kImmAddr | kBUni)) != 0;
  }
  static bool is_global(const Insn& in) {
    return in.op == Op::LoadG || in.op == Op::StoreG;
  }

  /// Element count a memory op's address is checked against.
  std::string mem_len(const Insn& in, const std::string& sfx) const {
    if (is_global(in)) return "en" + sfx;
    return strf("%d", p_.arrays[static_cast<std::size_t>(in.a)].len);
  }
  std::string out_of_range(const Insn& in, const std::string& sfx) const {
    return strf("idx < 0 || idx + %d > ", in.lanes) + mem_len(in, sfx);
  }

  /// Out-of-range failure of a memory op, message text as the VM's.
  std::string mem_fails(const Insn& in, const std::string& sfx) {
    const int w = in.lanes;
    const bool is_store = in.op == Op::StoreG || in.op == Op::StoreL ||
                          in.op == Op::StoreP;
    if (is_global(in))
      return fail_stmt(cstr(strf("global %s out of range: index %%lld + %d "
                                 "lanes, buffer %%lld elements",
                                 is_store ? "store" : "load", w)),
                       {"(long long)idx", "(long long)en" + sfx});
    const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
    const bool local = in.op == Op::LoadL || in.op == Op::StoreL;
    return fail_stmt(
        cstr(strf("%s array '%%s' %s out of range: index %%lld + %d "
                  "lanes, %%zu elements",
                  local ? "local" : "private", is_store ? "store" : "load",
                  w)),
        {cstr(ar.name), "(long long)idx", strf("(std::size_t)%d", ar.len)});
  }

  /// Private-slab slot of lane l of a private access: a literal for
  /// constant addresses.
  std::string private_slot(const Insn& in, int l,
                           const std::string& sfx) const {
    const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
    if (in.flags & kImmAddr) return imm64(ar.offset + in.imm + l);
    return strf("%d + ", ar.offset + l) + addr_expr(in, sfx);
  }

  /// Chunk expression (see ld) for lane l of the element a load reads:
  /// its own slot run for a uniform private address, a splat for a
  /// uniform local/global address, else a per-item gather.
  std::string mem_elem(const Insn& in, int l, int v,
                       const std::string& sfx) const {
    if (in.op == Op::LoadP) {
      if (uniform_addr(in) || v == 0)
        return ld(v, slot_run("parr", private_slot(in, l, sfx)));
      const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
      return strf("gatp%d(%s + t, av%s + t, SN)", v,
                  slot_run("parr", ar.offset + l).c_str(), sfx.c_str());
    }
    const bool f32 = in.op == Op::LoadG && (in.aux & kElemF32) != 0;
    const std::string base =
        in.op == Op::LoadL
            ? strf("larr + %d",
                   p_.arrays[static_cast<std::size_t>(in.a)].offset + l)
            : "gp" + sfx + strf(" + %d", l);
    if (v > 0 && !uniform_addr(in))
      return strf("%s%d(%s, av%s + t)", f32 ? "gatf" : "gat", v,
                  base.c_str(), sfx.c_str());
    return spl(v, std::string(f32 ? "(double)" : "") + "(" + base + ")[" +
                      addr_expr(in, sfx) + "]");
  }

  /// Statement storing chunk `e` into lane l of a local/private store's
  /// element (local stores only run per item, v == 0).
  std::string mem_store(const Insn& in, int l, int v, const std::string& e,
                        const std::string& sfx) const {
    const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
    if (in.op == Op::StoreL)
      return strf("larr[%d + ", ar.offset + l) + addr_expr(in, sfx) +
             "] = " + e + "; ";
    if (uniform_addr(in) || v == 0)
      return st(v, slot_run("parr", private_slot(in, l, sfx)), e);
    return strf("sctp%d(%s + t, av%s + t, SN, %s); ", v,
                slot_run("parr", ar.offset + l).c_str(), sfx.c_str(),
                e.c_str());
  }

  /// Hoisted bounds check: constant and uniform addresses check once
  /// (the compiler folds the constant form away entirely); varying
  /// addresses scan the items first — in SIMD mode as a branch-free
  /// OR-reduction with an exact re-scan on failure — so the message names
  /// the first faulting item exactly as the VM does.
  void emit_range_check(const Insn& in, const std::string& sfx) {
    const std::string fails = mem_fails(in, sfx);
    if (uniform_addr(in)) {
      line("{ const long long idx = " + addr_expr(in, sfx) + "; if (" +
           out_of_range(in, sfx) + ") " + fails + " }");
      return;
    }
    const std::string av = "av" + sfx;
    const std::string len = mem_len(in, sfx);
    const std::string scan =
        "for (long long t2 = 0; t2 < NI; ++t2) { const long long idx = " +
        av + "[t2]; if (" + out_of_range(in, sfx) + ") " + fails + " }";
    line(strf("{ vl%d acc = {}; long long t = 0;", simd_));
    line(strf("  for (; t + %d <= NI; t += %d) { const vl%d v_ = ldi%d(",
              simd_, simd_, simd_, simd_) +
         av + strf(" + t); acc |= (v_ < 0) | (v_ + %d > ", in.lanes) + len +
         "); }");
    std::string red = "long long bad = 0";
    for (int l = 0; l < simd_; ++l) red += strf(" | acc[%d]", l);
    line("  " + red + ";");
    if (ni_const_ == 0 || ni_const_ % simd_ != 0)
      line("  for (; t < NI; ++t) bad |= (long long)(" + av +
           strf("[t] < 0) | (long long)(%s[t] + %d > ", av.c_str(),
                in.lanes) +
           len + ");");
    line("  if (bad) " + scan);
    line("}");
  }

  // ---- region analyses ------------------------------------------------------

  /// One f-register operand of an instruction: the register's base slot,
  /// the per-item stride the VM addresses it with, the lanes the access
  /// reaches ([0, lanes)), and whether it writes (`fill`: lanes [lanes,
  /// stride) are zero-filled too).
  struct FOpnd {
    std::int32_t base;
    int stride;
    int lanes;
    bool write;
    bool fill;
  };
  static std::vector<FOpnd> f_operands(const Insn& in) {
    const int w = in.lanes;
    switch (in.op) {
      case Op::FConst:
      case Op::FArg:
      case Op::LoadG:
      case Op::LoadL:
      case Op::LoadP:
        return {{in.dst, w, w, true, false}};
      case Op::FMov:
        return {{in.a, in.c, w, false, false}, {in.dst, in.b, w, true, true}};
      case Op::FSplat:
        return {{in.a, in.aux, 1, false, false}, {in.dst, w, w, true, false}};
      case Op::FLane:
        if (in.imm < in.aux)
          return {{in.a, in.aux, static_cast<int>(in.imm) + 1, false, false},
                  {in.dst, 1, 1, true, false}};
        return {{in.dst, 1, 1, true, false}};
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
        return {{in.a, w, w, false, false},
                {in.b, w, w, false, false},
                {in.dst, w, w, true, false}};
      case Op::FMad:
        return {{in.a, w, w, false, false},
                {in.b, w, w, false, false},
                {in.c, w, w, false, false},
                {in.dst, w, w, true, false}};
      case Op::FmaPP:
        return {{in.c, in.aux >> 3, w, false, false}};
      case Op::SplatLaneP:
        return {{in.dst, in.b, w, true, true}};
      case Op::StoreG:
      case Op::StoreL:
      case Op::StoreP:
        return {{in.c, w, w, false, false}};
      default:
        return {};
    }
  }

  /// Every f-register's stride and used width (the widest access, zero
  /// fills aside). A register addressed with two strides, or whose slots
  /// overlap another register's, is `bad` and stays lane-major.
  void collect_fshapes() {
    for (const Insn& in : p_.code)
      for (const FOpnd& o : f_operands(in)) {
        FShape& f = fshape_[o.base];
        if (f.stride == 0) f.stride = o.stride;
        if (f.stride != o.stride || o.stride <= 0 || o.lanes > o.stride)
          f.bad = true;
        f.width = std::max(f.width, o.lanes);
      }
    for (auto& [b1, f1] : fshape_)
      for (auto& [b2, f2] : fshape_)
        if (b1 < b2 && b2 < b1 + f1.stride) f1.bad = f2.bad = true;
  }
  /// Lanes a register occupies in a chunk vector: its width, rounded up to
  /// a power of two.
  int wrep(std::int32_t base) const {
    int w = 1;
    while (w < fshape_.at(base).width) w *= 2;
    return w;
  }

  /// Each private array's segment length: the largest power of two (up to
  /// 16) dividing every constant-address write's offset and lane count, so
  /// each such write covers whole segments.
  void collect_pgran() {
    std::vector<long long> g(p_.arrays.size(), 0);
    for (const Insn& in : p_.code) {
      if (in.op == Op::StoreP && (in.flags & kImmAddr))
        g[static_cast<std::size_t>(in.a)] = std::gcd(
            g[static_cast<std::size_t>(in.a)], std::gcd(in.imm, 0LL + in.lanes));
      if (in.op == Op::FmaPP)
        g[static_cast<std::size_t>(in.a)] = std::gcd(
            g[static_cast<std::size_t>(in.a)], std::gcd(0LL + in.dst, 0LL + in.lanes));
    }
    pgran_.clear();
    for (const long long x : g)
      pgran_.push_back(x <= 0 ? 1 : static_cast<int>(std::min(x & -x, 16LL)));
  }

  static bool is_jump(Op op) {
    return op == Op::Jmp || op == Op::JzU || op == Op::JgeU ||
           op == Op::JNone || op == Op::ForCheckV;
  }
  /// Uniform registers an instruction reads.
  static std::vector<std::int32_t> u_reads(const Insn& in) {
    switch (in.op) {
      case Op::UAdd:
      case Op::USub:
      case Op::UMul:
      case Op::UDiv:
      case Op::UMod:
      case Op::ULt:
      case Op::UAnd:
      case Op::JgeU:
        return {in.a, in.b};
      case Op::UMov:
      case Op::UStepCheck:
      case Op::JzU:
      case Op::VMovU:
        return {in.a};
      default:
        break;
    }
    std::vector<std::int32_t> r;
    if (in.op >= Op::VAdd && in.op <= Op::VAnd) {
      if (in.flags & kAUni) r.push_back(in.a);
      if (in.flags & kBUni) r.push_back(in.b);
    }
    if (has_check(in) && (in.flags & kBUni) && !(in.flags & kImmAddr))
      r.push_back(in.b);
    return r;
  }
  static bool writes_u(const Insn& in) {
    return in.op >= Op::UConst && in.op <= Op::UMov;
  }

  /// Uniform registers holding one compile-time constant: every writer is
  /// the same UConst, and one of them runs in the straight-line prologue
  /// before any read.
  void collect_uconst() {
    const std::size_t n = p_.code.size();
    std::size_t prefix = 0;
    while (prefix < n && !is_target_[prefix] && !is_jump(p_.code[prefix].op))
      ++prefix;
    const auto nu = static_cast<std::size_t>(p_.n_u);
    std::vector<std::optional<std::int64_t>> val(nu);
    std::vector<char> bad(nu, 0);
    std::vector<std::size_t> first_w(nu, n), first_r(nu, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Insn& in = p_.code[i];
      for (const std::int32_t r : u_reads(in))
        first_r[static_cast<std::size_t>(r)] =
            std::min(first_r[static_cast<std::size_t>(r)], i);
      if (in.op == Op::ForCheckV)
        for (int k = 0; k < 3; ++k) bad[static_cast<std::size_t>(in.dst + k)] = 1;
      if (!writes_u(in)) continue;
      const auto d = static_cast<std::size_t>(in.dst);
      first_w[d] = std::min(first_w[d], i);
      if (in.op != Op::UConst || (val[d] && *val[d] != in.imm)) bad[d] = 1;
      val[d] = in.imm;
    }
    uconst_.assign(nu, std::nullopt);
    for (std::size_t r = 0; r < nu; ++r)
      if (!bad[r] && val[r] && first_w[r] < prefix && first_r[r] > first_w[r])
        uconst_[r] = val[r];
  }

  /// Affine form of every varying integer register over the local ids:
  /// value = (one work-group-uniform value) + c[0]*x + c[1]*y, for all
  /// values the register ever holds (a flow-insensitive fixpoint;
  /// temporaries are written before they are read, variables start at
  /// zero).
  Aff opnd_aff(bool uni, std::int32_t r) const {
    if (!uni) return aff_[static_cast<std::size_t>(r)];
    Aff a;
    a.st = 1;
    if (uconst_[static_cast<std::size_t>(r)]) {
      a.has_k = true;
      a.k = *uconst_[static_cast<std::size_t>(r)];
    }
    return a;
  }
  static Aff aff_join(const Aff& a, const Aff& b) {
    if (a.st == 0) return b;
    if (b.st == 0) return a;
    Aff r;
    r.st = (a.st == 2 || b.st == 2 || a.c[0] != b.c[0] || a.c[1] != b.c[1])
               ? 2
               : 1;
    if (r.st == 1) {
      r.c[0] = a.c[0];
      r.c[1] = a.c[1];
      r.has_k = a.has_k && b.has_k && a.k == b.k;
      r.k = a.k;
    }
    return r;
  }
  Aff aff_of(const Insn& in) const {
    Aff r;
    r.st = 1;
    const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
    switch (in.op) {
      case Op::VBuiltin:
        if (fn == BuiltinFn::LocalId || fn == BuiltinFn::GlobalId)
          r.c[in.aux & 1] = 1;
        return r;
      case Op::VMovU:
        return opnd_aff(true, in.a);
      case Op::VMov:
        return aff_[static_cast<std::size_t>(in.a)];
      default:
        break;
    }
    const Aff x = opnd_aff(in.flags & kAUni, in.a);
    const Aff y = opnd_aff(in.flags & kBUni, in.b);
    if (x.st == 0 || y.st == 0) return Aff{};
    r.st = 2;
    if (x.st == 2 || y.st == 2) return r;
    const bool xu = x.c[0] == 0 && x.c[1] == 0;
    const bool yu = y.c[0] == 0 && y.c[1] == 0;
    r.st = 1;
    switch (in.op) {
      case Op::VAdd:
      case Op::VSub: {
        const int sg = in.op == Op::VAdd ? 1 : -1;
        for (int d = 0; d < 2; ++d) r.c[d] = x.c[d] + sg * y.c[d];
        r.has_k = x.has_k && y.has_k;
        r.k = x.k + sg * y.k;
        return r;
      }
      case Op::VMul:
        if (x.has_k || y.has_k) {
          const Aff& kk = x.has_k ? x : y;
          const Aff& o = x.has_k ? y : x;
          for (int d = 0; d < 2; ++d) r.c[d] = kk.k * o.c[d];
          r.has_k = o.has_k;
          r.k = kk.k * o.k;
          return r;
        }
        break;
      default:
        break;
    }
    if (!(xu && yu)) r.st = 2;
    return r;
  }
  void collect_affine() {
    aff_.assign(static_cast<std::size_t>(p_.n_vi), Aff{});
    for (int r = 0; r < p_.n_vi_vars; ++r) {
      aff_[static_cast<std::size_t>(r)].st = 1;
      aff_[static_cast<std::size_t>(r)].has_k = true;
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const Insn& in : p_.code) {
        if (in.op < Op::VBuiltin || in.op > Op::VMov) continue;
        Aff& d = aff_[static_cast<std::size_t>(in.dst)];
        // A masked write leaves the inactive items' old values: the items
        // no longer share one uniform part.
        Aff v = aff_of(in);
        if (in.flags & kMasked) v.st = 2;
        const Aff j = aff_join(d, v);
        if (j.st != d.st || j.c[0] != d.c[0] || j.c[1] != d.c[1] ||
            j.has_k != d.has_k || j.k != d.k) {
          d = j;
          changed = true;
        }
      }
    }
  }

  // Liveness works on slots: vf slot s, then vi register r, then private
  // element e, then uniform register r.
  int vi_slot(std::int32_t r) const { return p_.n_vf + r; }
  int pa_slot(std::int64_t e) const {
    return p_.n_vf + p_.n_vi + static_cast<int>(e);
  }
  int u_slot(std::int32_t r) const {
    return pa_slot(p_.parr_doubles) + r;
  }
  /// Private elements [off, off + n) of array `arr`, clipped to the array.
  template <typename Fn>
  void p_range(std::int32_t arr, std::int64_t off, int n, Fn fn) const {
    const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(arr)];
    for (std::int64_t e = std::max<std::int64_t>(off, 0);
         e < std::min<std::int64_t>(off + n, ar.len); ++e)
      fn(e);
  }
  /// Appends the slots `in` reads (`use`) and surely overwrites (`def`).
  void access_slots(const Insn& in, std::vector<int>* use,
                    std::vector<int>* def) const {
    const bool masked = (in.flags & kMasked) != 0;
    for (const FOpnd& o : f_operands(in)) {
      const int lo = in.op == Op::FLane && !o.write ? o.lanes - 1 : 0;
      const int hi = o.write && o.fill ? o.stride : o.lanes;
      for (int l = lo; l < hi; ++l) {
        if (o.base + l >= p_.n_vf) break;
        if (!o.write) {
          use->push_back(o.base + l);
        } else if (!masked) {
          def->push_back(o.base + l);
        }
      }
    }
    if (in.op >= Op::VBuiltin && in.op <= Op::VMov) {
      if (!masked) def->push_back(vi_slot(in.dst));
      if (in.op != Op::VBuiltin && in.op != Op::VMovU) {
        if (!(in.flags & kAUni)) use->push_back(vi_slot(in.a));
        if (in.op != Op::VMov && !(in.flags & kBUni))
          use->push_back(vi_slot(in.b));
      }
    }
    if (has_check(in) && !(in.flags & (kImmAddr | kBUni)))
      use->push_back(vi_slot(in.b));
    for (const std::int32_t r : u_reads(in)) use->push_back(u_slot(r));
    if (writes_u(in)) def->push_back(u_slot(in.dst));
    if (in.op == Op::ForCheckV)
      for (int k = 0; k < 3; ++k) def->push_back(u_slot(in.dst + k));
    const auto pa = [&](std::int32_t arr, std::int64_t off, int n,
                        std::vector<int>* to) {
      const int o = p_.arrays[static_cast<std::size_t>(arr)].offset;
      p_range(arr, off, n, [&](std::int64_t e) { to->push_back(pa_slot(o + e)); });
    };
    switch (in.op) {
      case Op::ForCheckV:
        for (const std::int32_t r : {in.a, in.b, in.c}) use->push_back(vi_slot(r));
        break;
      case Op::MaskPush:
        use->push_back(vi_slot(in.a));
        break;
      case Op::MaskFlip:  // reads the condition of whichever push is on top
        for (const Insn& m : p_.code)
          if (m.op == Op::MaskPush) use->push_back(vi_slot(m.a));
        break;
      case Op::FmaPP:
        pa(in.a, in.dst, in.lanes, use);
        pa(in.b, in.imm, in.lanes, use);
        pa(in.a, in.dst, in.lanes, def);
        break;
      case Op::SplatLaneP:
        pa(in.a, in.imm, 1, use);
        break;
      case Op::LoadP:
        if (in.flags & kImmAddr) {
          pa(in.a, in.imm, in.lanes, use);
        } else {
          pa(in.a, 0, p_.arrays[static_cast<std::size_t>(in.a)].len, use);
        }
        break;
      case Op::StoreP:
        if ((in.flags & kImmAddr) && !masked) pa(in.a, in.imm, in.lanes, def);
        break;
      default:
        break;
    }
  }
  /// Backward liveness over the instruction graph: live_[i] holds the
  /// slots live on entry to instruction i (live_[n]: past the end).
  void collect_liveness() {
    const std::size_t n = p_.code.size();
    const std::size_t words =
        (static_cast<std::size_t>(u_slot(p_.n_u)) + 63) / 64;
    live_.assign(n + 1, std::vector<std::uint64_t>(words, 0));
    std::vector<std::vector<int>> use(n), def(n);
    for (std::size_t i = 0; i < n; ++i)
      access_slots(p_.code[i], &use[i], &def[i]);
    std::vector<std::uint64_t> cur(words);
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = n; i-- > 0;) {
        const Insn& in = p_.code[i];
        std::fill(cur.begin(), cur.end(), 0);
        const auto join = [&](std::size_t t) {
          for (std::size_t w = 0; w < words; ++w) cur[w] |= live_[t][w];
        };
        if (in.op != Op::Halt && in.op != Op::Throw && in.op != Op::Jmp)
          join(i + 1);
        if (is_jump(in.op)) join(static_cast<std::size_t>(in.imm));
        for (const int s : def[i]) cur[s / 64] &= ~(1ull << (s % 64));
        for (const int s : use[i]) cur[s / 64] |= 1ull << (s % 64);
        if (cur != live_[i]) {
          live_[i] = cur;
          changed = true;
        }
      }
    }
  }
  bool live_at(std::size_t pc, int slot) const {
    return (live_[pc][static_cast<std::size_t>(slot) / 64] >> (slot % 64)) & 1;
  }

  // ---- region formation -----------------------------------------------------

  /// True when `in` may run inside a chunk-outer region: no global or
  /// local store, barrier, group-wide mask or loop-bound test, no
  /// divergence mask, private accesses at constant addresses only, and
  /// every f-register operand laid out unambiguously.
  bool region_op(const Insn& in) const {
    if (in.flags & kMasked) return false;
    switch (in.op) {
      case Op::Halt:
      case Op::StoreG:
      case Op::StoreL:
      case Op::Barrier:
      case Op::ForCheckV:
      case Op::MaskPush:
      case Op::MaskFlip:
      case Op::MaskPop:
      case Op::JNone:
      case Op::Throw:
        return false;
      case Op::LoadP:
      case Op::StoreP:
        if (!(in.flags & kImmAddr)) return false;
        break;
      default:
        break;
    }
    for (const FOpnd& o : f_operands(in)) {
      const FShape& f = fshape_.at(o.base);
      if (f.bad || wrep(o.base) > 16) return false;
    }
    return true;
  }

  /// Cuts the maximal runs of region ops into single-entry, single-exit
  /// intervals (every jump inside lands inside or on the exit, no jump
  /// from outside lands past the entry) and plans those holding a loop.
  void collect_regions() {
    if (ni_const_ == 0) return;  // chunking needs the work-group shape
    collect_fshapes();
    collect_pgran();
    collect_uconst();
    collect_affine();
    collect_liveness();
    const std::size_t n = p_.code.size();
    std::vector<char> ok(n);
    for (std::size_t i = 0; i < n; ++i) ok[i] = region_op(p_.code[i]);
    // A fused pair runs as one, so both halves sit on the same side.
    for (const auto& [cons, prod] : fused_)
      if (!ok[cons] || !ok[prod]) ok[cons] = ok[prod] = 0;
    std::vector<std::pair<std::size_t, std::size_t>> work, done;
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i;
      while (j < n && ok[j]) ++j;
      if (j > i) work.emplace_back(i, j);
      i = j + 1;
    }
    while (!work.empty()) {
      const auto [s, e] = work.back();
      work.pop_back();
      if (s >= e) continue;
      bool cut = false;
      for (std::size_t i = 0; i < n && !cut; ++i) {
        if (!is_jump(p_.code[i].op)) continue;
        const auto t = static_cast<std::size_t>(p_.code[i].imm);
        if (i >= s && i < e && (t < s || t > e)) {
          work.emplace_back(s, i);  // the jump itself stays lane-major
          work.emplace_back(i + 1, e);
          cut = true;
        } else if ((i < s || i >= e) && t > s && t < e) {
          work.emplace_back(s, t);
          work.emplace_back(t, e);
          cut = true;
        }
      }
      if (!cut) done.emplace_back(s, e);
    }
    for (const auto& [s, e] : done) {
      bool loop = false;
      for (std::size_t i = s; i < e; ++i)
        loop |= is_jump(p_.code[i].op) &&
                p_.code[i].imm <= static_cast<std::int64_t>(i);
      Region r;
      r.s = s;
      r.e = e;
      if (loop && plan_region(&r)) regions_.push_back(std::move(r));
    }
    std::sort(regions_.begin(), regions_.end(),
              [](const Region& a, const Region& b) { return a.s < b.s; });
  }

  // ---- region planning ------------------------------------------------------

  static ObjKey fkey(std::int32_t base) { return {0, base, 0}; }
  ObjKey pkey(std::int32_t arr, std::int64_t e) const {
    return {1, arr, static_cast<std::int32_t>(e / pgran_[static_cast<std::size_t>(arr)])};
  }
  static ObjKey ikey(std::int32_t r) { return {2, r, 0}; }

  /// The private elements an instruction reads and writes, as
  /// (array, element, write) calls.
  template <typename Fn>
  void p_access(const Insn& in, Fn fn) const {
    switch (in.op) {
      case Op::FmaPP:
        p_range(in.b, in.imm, in.lanes, [&](std::int64_t e) { fn(in.b, e, false); });
        p_range(in.a, in.dst, in.lanes, [&](std::int64_t e) { fn(in.a, e, true); });
        break;
      case Op::SplatLaneP:
        p_range(in.a, in.imm, 1, [&](std::int64_t e) { fn(in.a, e, false); });
        break;
      case Op::LoadP:
      case Op::StoreP:
        p_range(in.a, in.imm, in.lanes, [&](std::int64_t e) {
          fn(in.a, e, in.op == Op::StoreP);
        });
        break;
      default:
        break;
    }
  }
  /// The varying integer registers an instruction reads and writes.
  template <typename Fn>
  static void i_access(const Insn& in, Fn fn) {
    if (in.op >= Op::VBuiltin && in.op <= Op::VMov) {
      if (in.op != Op::VBuiltin && in.op != Op::VMovU) {
        if (!(in.flags & kAUni)) fn(in.a, false);
        if (in.op != Op::VMov && !(in.flags & kBUni)) fn(in.b, false);
      }
      fn(in.dst, true);
    }
    if (has_check(in) && !(in.flags & (kImmAddr | kBUni))) fn(in.b, false);
  }
  /// The liveness slots an object covers (none for a block-local value).
  std::vector<int> obj_slots(const ObjKey& k) const {
    std::vector<int> s;
    if (k.kind == 0) {
      for (int l = 0; l < fshape_.at(k.a).width; ++l) s.push_back(k.a + l);
    } else if (k.kind == 1) {
      const int g = pgran_[static_cast<std::size_t>(k.a)];
      const int o = p_.arrays[static_cast<std::size_t>(k.a)].offset;
      p_range(k.a, std::int64_t{k.b} * g, g,
              [&](std::int64_t e) { s.push_back(pa_slot(o + e)); });
    } else if (k.kind == 2) {
      s.push_back(vi_slot(k.a));
    }
    return s;
  }

  const ObjInfo& obj(const Region& R, const ObjKey& k) const {
    return R.objs.at(k);
  }
  /// True when a load's address is the same for every item of a chunk.
  bool addr_uniform(const Region& R, const Insn& in) const {
    if (R.P == 1) return false;
    if (in.flags & (kImmAddr | kBUni)) return true;
    const ObjInfo& o = obj(R, ikey(in.b));
    return !o.v && o.c == 0;
  }
  /// True when the value `in` computes differs between the items of a
  /// chunk (given the current object forms).
  bool value_varying(const Region& R, const Insn& in, std::size_t pc) const {
    const auto fv = [&](std::int32_t b) {
      return obj(R, R.fread.at({pc, b})).v;
    };
    const auto iv = [&](bool uni, std::int32_t r) {
      return !uni && obj(R, ikey(r)).v;
    };
    bool pv = false;
    p_access(in, [&](std::int32_t arr, std::int64_t e, bool) {
      pv |= obj(R, pkey(arr, e)).v;
    });
    switch (in.op) {
      case Op::FMov:
      case Op::FSplat:
        return fv(in.a);
      case Op::FLane:
        return in.imm < in.aux && fv(in.a);
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
        return fv(in.a) || fv(in.b);
      case Op::FMad:
        return fv(in.a) || fv(in.b) || fv(in.c);
      case Op::FmaPP:
        return fv(in.c) || pv;
      case Op::SplatLaneP:
      case Op::LoadP:
        return pv;
      case Op::StoreP:
        return fv(in.c);
      case Op::LoadG:
      case Op::LoadL:
        return !addr_uniform(R, in);
      case Op::VBuiltin: {
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        return (fn == BuiltinFn::LocalId || fn == BuiltinFn::GlobalId) &&
               (in.aux & 1) == R.d && R.P > 1;
      }
      case Op::VMov:
        return iv(false, in.a);
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VDiv:
      case Op::VMod:
      case Op::VLt:
      case Op::VAnd:
        return iv(in.flags & kAUni, in.a) || iv(in.flags & kBUni, in.b);
      default:
        return false;
    }
  }
  /// The objects `in` writes.
  std::vector<ObjKey> written_objs(const Region& R, const Insn& in,
                                   std::size_t pc) const {
    std::vector<ObjKey> w;
    for (const FOpnd& o : f_operands(in))
      if (o.write) w.push_back(R.fwrite.at({pc, o.base}));
    p_access(in, [&](std::int32_t arr, std::int64_t e, bool wr) {
      if (wr) w.push_back(pkey(arr, e));
    });
    i_access(in, [&](std::int32_t r, bool wr) {
      if (wr) w.push_back(ikey(r));
    });
    return w;
  }

  /// Plans region [s, e): the objects it touches, the chunk shape, which
  /// objects load at entry and store at exit, and each object's form.
  /// False when the work-group shape does not chunk evenly.
  bool plan_region(Region* rp) {
    Region& R = *rp;
    for (std::size_t pc = R.s; pc < R.e; ++pc) {
      const Insn& in = p_.code[pc];
      if (is_jump(in.op) && static_cast<std::size_t>(in.imm) < R.e)
        R.labels.insert(static_cast<std::size_t>(in.imm));
    }
    // Resolve every f-register operand to its object: a write whose value
    // is read only up to the next full write of the register, with no
    // label or jump in between, gets a local of its own.
    const auto full = [&](const FOpnd& o) {
      return (o.fill ? o.stride : o.lanes) >= fshape_.at(o.base).width;
    };
    const auto local_def = [&](std::size_t pc, const FOpnd& o) {
      if (!full(o)) return false;
      for (std::size_t k = pc + 1; k < R.e; ++k) {
        if (R.labels.count(k) != 0) return false;
        for (const FOpnd& q : f_operands(p_.code[k]))
          if (q.write && q.base == o.base) return full(q);
        if (is_jump(p_.code[k].op)) return false;
      }
      return false;
    };
    std::map<std::int32_t, ObjKey> web;
    for (std::size_t pc = R.s; pc < R.e; ++pc) {
      if (R.labels.count(pc) != 0) web.clear();
      const Insn& in = p_.code[pc];
      for (const FOpnd& o : f_operands(in)) {
        if (o.write) continue;
        const auto c = web.find(o.base);
        R.fread[{pc, o.base}] = c != web.end() ? c->second : fkey(o.base);
      }
      for (const FOpnd& o : f_operands(in)) {
        if (!o.write) continue;
        const ObjKey k = local_def(pc, o)
                             ? ObjKey{3, o.base, static_cast<std::int32_t>(pc)}
                             : fkey(o.base);
        R.fwrite[{pc, o.base}] = k;
        if (k.kind == 3) {
          web[o.base] = k;
        } else {
          web.erase(o.base);
        }
      }
      if (is_jump(in.op)) web.clear();
    }
    int maxw = 1;
    for (std::size_t pc = R.s; pc < R.e; ++pc) {
      const Insn& in = p_.code[pc];
      for (const FOpnd& o : f_operands(in)) {
        R.objs[o.write ? R.fwrite.at({pc, o.base})
                       : R.fread.at({pc, o.base})]
            .written |= o.write;
        maxw = std::max(maxw, wrep(o.base));
      }
      p_access(in, [&](std::int32_t arr, std::int64_t e, bool wr) {
        R.objs[pkey(arr, e)].written |= wr;
        maxw = std::max(maxw, pgran_[static_cast<std::size_t>(arr)]);
      });
      i_access(in, [&](std::int32_t r, bool wr) { R.objs[ikey(r)].written |= wr; });
      if (writes_u(in)) R.uw.insert(in.dst);
    }
    R.P = std::max(1, simd_ / maxw);
    // Chunk along the local id that makes the most loads uniform (one
    // scalar load) or unit-stride (one vector load) across the chunk.
    const std::int64_t extent[2] = {k_.reqd_local[0], k_.reqd_local[1]};
    int best = -1;
    for (int d = 0; d < 2; ++d) {
      if (extent[d] % R.P != 0) continue;
      int score = 0;
      for (std::size_t pc = R.s; pc < R.e; ++pc) {
        const Insn& in = p_.code[pc];
        if ((in.op != Op::LoadG && in.op != Op::LoadL) ||
            (in.flags & (kImmAddr | kBUni)))
          continue;
        const Aff& a = aff_[static_cast<std::size_t>(in.b)];
        if (a.st == 1 && a.c[d] == 0) score += 2;
        if (a.st == 1 && a.c[d] == in.lanes) score += 1;
      }
      if (score > best) {
        best = score;
        R.d = d;
      }
    }
    if (best < 0) return false;
    for (auto& [k, o] : R.objs) {
      bool in = false, out = false;
      for (const int s : obj_slots(k)) {
        in |= live_at(R.s, s);
        out |= live_at(R.e, s);
      }
      o.store = o.written && out;
      o.load = in || o.store;
      if (k.kind == 2) {  // fixed by the affine form
        const Aff& a = aff_[static_cast<std::size_t>(k.a)];
        o.v = R.P > 1 && a.st != 1;
        o.c = R.P > 1 && a.st == 1 ? a.c[R.d] : 0;
        continue;
      }
      // Loaded values may differ per item; a chunk holding one item keeps
      // every object as a vector.
      o.v = R.P == 1 || o.load;
    }
    for (const std::int32_t r : R.uw) {
      if (live_at(R.s, u_slot(r))) R.uw_in.insert(r);
      if (live_at(R.e, u_slot(r))) R.uw_out.insert(r);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t pc = R.s; pc < R.e; ++pc) {
        const Insn& in = p_.code[pc];
        if (!value_varying(R, in, pc)) continue;
        for (const ObjKey& k : written_objs(R, in, pc)) {
          ObjInfo& o = R.objs.at(k);
          if (!o.v && k.kind != 2) o.v = changed = true;
        }
      }
    }
    return true;
  }

  // ---- region emission ------------------------------------------------------

  /// A w-lane value inside a region: one chunk vector of P*w doubles (item
  /// j's lane l at j*w + l) when it varies across the chunk, else one
  /// scalar expression per lane.
  struct Val {
    bool v = false;
    int w = 1;
    std::string vec;
    std::vector<std::string> lanes;
  };

  static std::string vt(int n) { return n == 1 ? "double" : strf("vd%d", n); }
  static std::string it(int n) {
    return n == 1 ? "long long" : strf("vl%d", n);
  }
  /// Element i of an n-element vector variable (the variable itself when
  /// n == 1).
  static std::string ev(const std::string& x, int n, int i) {
    return n == 1 ? x : strf("%s[%d]", x.c_str(), i);
  }
  /// An n-element vector built from elem(i) (type `t` = vd or vl).
  template <typename Elem>
  static std::string build(int n, Elem elem, const char* t = "vd") {
    if (n == 1) return elem(0);
    std::string s = strf("%s%d{", t, n);
    for (int i = 0; i < n; ++i) s += (i ? ", " : "") + elem(i);
    return s + "}";
  }
  /// Linear work-item index step from one item of a chunk to the next.
  long long item_step(const Region& R) const {
    return R.d == 0 ? 1 : static_cast<long long>(k_.reqd_local[0]);
  }
  /// Item j of the chunk: its linear work-item index.
  std::string item(const Region& R, int j) const {
    return j == 0 ? "t0" : strf("(t0 + %lld)", j * item_step(R));
  }

  /// The object f-register b's operand of the current instruction reads
  /// or writes.
  ObjKey fobj(const Region& R, std::int32_t b, bool write) const {
    return (write ? R.fwrite : R.fread).at({cur_pc_, b});
  }
  static std::string fname(const ObjKey& k) {
    return k.kind == 0 ? strf("F%d", k.a) : strf("F%d_p%d", k.a, k.b);
  }
  std::string felem(const Region& R, const ObjKey& k, int j, int l) const {
    if (!obj(R, k).v) return strf("%s_%d", fname(k).c_str(), l);
    const int W = wrep(k.a);
    return ev(fname(k), R.P * W, j * W + l);
  }
  std::string pname(const ObjKey& k) const {
    return strf("Q%d_%d", k.a, k.b);
  }
  std::string pelem(const Region& R, std::int32_t arr, std::int64_t e,
                    int j) const {
    const int g = pgran_[static_cast<std::size_t>(arr)];
    const ObjKey k = pkey(arr, e);
    const int l = static_cast<int>(e % g);
    if (!obj(R, k).v) return strf("%s_%d", pname(k).c_str(), l);
    return ev(pname(k), R.P * g, j * g + l);
  }

  /// Element (item j, lane l) of a value.
  static std::string velem(const Region& R, const Val& x, int j, int l) {
    return x.v ? ev(x.vec, R.P * x.w, j * x.w + l) : x.lanes[static_cast<std::size_t>(l)];
  }
  /// The value as a chunk vector (uniform lanes repeated per item).
  static std::string tile(const Region& R, const Val& x) {
    if (x.v) return x.vec;
    const int n = R.P * x.w;
    if (std::all_of(x.lanes.begin(), x.lanes.end(),
                    [&](const std::string& s) { return s == x.lanes[0]; }))
      return n == 1 ? x.lanes[0] : strf("spl%d(%s)", n, x.lanes[0].c_str());
    return build(n, [&](int i) { return x.lanes[static_cast<std::size_t>(i % x.w)]; });
  }
  /// Binds a vector value to a fresh local so its elements can be read.
  void bind(const Region& R, Val* x) {
    if (!x->v) return;
    const std::string t = strf("t%d_", tmp_++);
    line("const " + vt(R.P * x->w) + " " + t + " = " + x->vec + ";");
    x->vec = t;
  }
  static Val uni(std::vector<std::string> lanes) {
    Val x;
    x.w = static_cast<int>(lanes.size());
    x.lanes = std::move(lanes);
    return x;
  }

  /// Lanes [first, first + w) of f-register b.
  Val read_f(const Region& R, std::int32_t b, int w, int first = 0) const {
    const ObjKey k = fobj(R, b, false);
    Val x;
    x.w = w;
    if (!obj(R, k).v) {
      for (int l = 0; l < w; ++l) x.lanes.push_back(felem(R, k, 0, first + l));
      return x;
    }
    x.v = true;
    x.vec = first == 0 && wrep(b) == w
                ? fname(k)
                : build(R.P * w, [&](int i) {
                    return felem(R, k, i / w, first + i % w);
                  });
    return x;
  }
  /// Private elements [off, off + w) of array arr.
  Val read_p(const Region& R, std::int32_t arr, std::int64_t off, int w) const {
    const int g = pgran_[static_cast<std::size_t>(arr)];
    bool v = false;
    for (int l = 0; l < w; ++l) v |= obj(R, pkey(arr, off + l)).v;
    Val x;
    x.w = w;
    x.v = v;
    if (!v) {
      for (int l = 0; l < w; ++l) x.lanes.push_back(pelem(R, arr, off + l, 0));
    } else if (off % g == 0 && w == g) {
      x.vec = pname(pkey(arr, off));
    } else {
      x.vec = build(R.P * w, [&](int i) {
        return pelem(R, arr, off + i % w, i / w);
      });
    }
    return x;
  }
  /// Writes value x into lanes [0, n) of f-register b and zeros into
  /// lanes [n, fill).
  void write_f(const Region& R, std::int32_t b, Val x, int n, int fill) {
    const ObjKey k = fobj(R, b, true);
    fill = std::min(fill, fshape_.at(b).width);
    if (!obj(R, k).v) {
      check(!x.v, "native emit: varying value into a uniform register");
      for (int l = 0; l < n; ++l)
        line(felem(R, k, 0, l) + " = " + x.lanes[static_cast<std::size_t>(l)] + ";");
      for (int l = n; l < fill; ++l) line(felem(R, k, 0, l) + " = 0.0;");
      return;
    }
    const int W = wrep(b);
    if (n == W) {
      line(fname(k) + " = " + tile(R, x) + ";");
      return;
    }
    bind(R, &x);
    if (fill >= fshape_.at(b).width) {  // every used lane is rewritten
      line(fname(k) + " = " + build(R.P * W, [&](int i) {
             const int l = i % W;
             return l < n ? velem(R, x, i / W, l) : std::string("0.0");
           }) + ";");
      return;
    }
    for (int j = 0; j < R.P; ++j) {
      for (int l = 0; l < n; ++l)
        line(felem(R, k, j, l) + " = " + velem(R, x, j, l) + ";");
      for (int l = n; l < fill; ++l) line(felem(R, k, j, l) + " = 0.0;");
    }
  }
  /// Writes value x into private elements [off, off + n) of array arr.
  void write_p(const Region& R, std::int32_t arr, std::int64_t off, Val x,
               int n) {
    const int g = pgran_[static_cast<std::size_t>(arr)];
    if (obj(R, pkey(arr, off)).v && off % g == 0 && n == g) {
      line(pname(pkey(arr, off)) + " = " + tile(R, x) + ";");
      return;
    }
    bind(R, &x);
    for (int l = 0; l < n; ++l) {
      const bool v = obj(R, pkey(arr, off + l)).v;
      check(v || !x.v, "native emit: varying value into a uniform segment");
      for (int j = 0; j < (v ? R.P : 1); ++j)
        line(pelem(R, arr, off + l, j) + " = " + velem(R, x, j, l) + ";");
    }
  }
  /// Rounds a value to f32 per element when `on`.
  static std::string rnd_v(int n, bool on, const std::string& e) {
    if (!on) return "(" + e + ")";
    return n == 1 ? "(double)(float)(" + e + ")" : strf("rnd%d(%s)", n, e.c_str());
  }
  /// Arithmetic on f values: per lane when all are uniform, else on the
  /// chunk vectors.
  template <typename Fn>
  Val arith(const Region& R, const std::vector<Val>& xs, bool f32, Fn fn) {
    const int w = xs[0].w;
    Val r;
    r.w = w;
    r.v = std::any_of(xs.begin(), xs.end(), [](const Val& x) { return x.v; });
    std::vector<std::string> ops;
    if (!r.v) {
      for (int l = 0; l < w; ++l) {
        ops.clear();
        for (const Val& x : xs) ops.push_back(x.lanes[static_cast<std::size_t>(l)]);
        r.lanes.push_back(rnd_v(1, f32, fn(ops)));
      }
      return r;
    }
    for (const Val& x : xs) ops.push_back(tile(R, x));
    r.vec = rnd_v(R.P * w, f32, fn(ops));
    return r;
  }

  /// A varying integer value: a vector of P items, or a scalar e whose
  /// item j holds e + j*c.
  struct IVal {
    bool v = false;
    std::string e;
    std::int64_t c = 0;
  };
  IVal iopnd(const Region& R, bool uni, std::int32_t r) const {
    if (uni) return {false, u(r), 0};
    const ObjInfo& o = obj(R, ikey(r));
    return {o.v, strf("I%d", r), o.c};
  }
  static std::string ielem(const IVal& x, int P, int j) {
    if (x.v) return ev(x.e, P, j);
    return j * x.c == 0 ? x.e
                        : strf("(%s + %lld)", x.e.c_str(),
                               static_cast<long long>(j * x.c));
  }
  static std::string itile(const IVal& x, int P) {
    if (x.v || P == 1) return x.e;
    if (x.c == 0) return strf("spli%d(%s)", P, x.e.c_str());
    return build(P, [&](int j) { return ielem(x, P, j); }, "vl");
  }
  void write_i(const Region& R, std::int32_t r, const IVal& x) {
    const ObjInfo& o = obj(R, ikey(r));
    check(o.v || (!x.v && (x.c == o.c || R.P == 1)),
          "native emit: integer value does not match its register's form");
    line(strf("I%d = ", r) + (o.v ? itile(x, R.P) : x.e) + ";");
  }
  std::string label(const Region& R, std::size_t t) const {
    return t == R.e ? strf("R%zu_x", R.s) : strf("R%zu_%zu", R.s, t);
  }
  /// A jump inside the region; a backward one counts the iteration and
  /// abandons the chunk once it is past the least fault recorded.
  std::string jump(const Region& R, std::size_t pc, std::size_t t) const {
    if (t > pc) return "goto " + label(R, t) + ";";
    return strf("{ if (++bj > fk[0]) goto R%zu_n; goto %s; }", R.s,
                label(R, t).c_str());
  }

  /// Prints region R: a loop over its chunks, each running the region's
  /// instructions on C++ locals between a load of the live-in slab values
  /// and a store of the live-out ones. Faults are recorded per chunk and
  /// the least (iteration, instruction, item) one raised after the loop —
  /// the one the lockstep VM raises first.
  void emit_region(const Region& R) {
    cur_ = &R;
    const int P = R.P;
    const long long lsx = k_.reqd_local[0];
    const auto slab = [&](const ObjKey& k, int j, int l) {
      if (k.kind == 0) return strf("vf[%d * SN + %s]", k.a + l, item(R, j).c_str());
      if (k.kind == 1) {
        const int g = pgran_[static_cast<std::size_t>(k.a)];
        return strf("parr[%lld * SN + %s]",
                    static_cast<long long>(
                        p_.arrays[static_cast<std::size_t>(k.a)].offset) +
                        static_cast<long long>(k.b) * g + l,
                    item(R, j).c_str());
      }
      return strf("vi[%d * NI + %s]", k.a, item(R, j).c_str());
    };
    // Lanes of an object that hold data (a segment may overhang its array).
    const auto used = [&](const ObjKey& k) {
      if (k.kind == 0 || k.kind == 3) return fshape_.at(k.a).width;
      if (k.kind == 2) return 1;
      const int g = pgran_[static_cast<std::size_t>(k.a)];
      return std::min(g, p_.arrays[static_cast<std::size_t>(k.a)].len - k.b * g);
    };
    const auto width = [&](const ObjKey& k) {
      return k.kind == 1   ? pgran_[static_cast<std::size_t>(k.a)]
             : k.kind == 2 ? 1
                           : wrep(k.a);
    };
    const auto name = [&](const ObjKey& k) {
      return k.kind == 1 ? pname(k) : k.kind == 2 ? strf("I%d", k.a) : fname(k);
    };
    // Along x a chunk's items are consecutive, so each slab slot's run
    // over them is contiguous.
    const bool runs = R.d == 0 && P > 1;
    line(strf("{  // [%zu, %zu) chunk-outer: %d items along local id %d",
              R.s, R.e, P, R.d));
    // Uniform registers live past the region keep the last chunk's value
    // (every chunk computes the same one); the others are chunk locals.
    for (const std::int32_t r : R.uw_out) line(strf("long long U%d = 0;", r));
    line("long long fk[3] = {kNoFault, 0, 0};");
    line(strf("for (long long c = 0; c < %lld; ++c) {",
              static_cast<long long>(ni_const_ / P)));
    if (R.d == 0) {
      line(strf("const long long t0 = c * %d;", P));
    } else {
      line(strf("const long long t0 = c %% %lld + c / %lld * %lld;", lsx, lsx,
                lsx * P));
    }
    for (const std::int32_t r : R.uw) {
      const std::string init = R.uw_in.count(r) != 0 ? strf("u[%d]", r) : "0";
      line(R.uw_out.count(r) != 0 ? strf("U%d = %s;", r, init.c_str())
                                  : strf("long long U%d = %s;", r, init.c_str()));
    }
    line("long long bj = 0;");
    for (const auto& [k, o] : R.objs) {
      const int W = width(k), n = used(k);
      const bool ints = k.kind == 2;
      if (!o.v) {
        if (ints) {
          line(strf("long long I%d = %s;", k.a, o.load ? slab(k, 0, 0).c_str() : "0"));
        } else {
          for (int l = 0; l < n; ++l)
            line(strf("double %s_%d = 0.0;", name(k).c_str(), l));
        }
        continue;
      }
      std::string init = P * W == 1 ? "0" : "{}";
      if (o.load && runs) {  // one vector load per lane, then interleave
        for (int l = 0; l < n; ++l)
          line(strf("const %s %s_r%d = %s%d(&%s);", ints ? it(P).c_str() : vt(P).c_str(),
                    name(k).c_str(), l, ints ? "ldi" : "ld", P,
                    slab(k, 0, l).c_str()));
        init = W == 1 ? name(k) + "_r0"
                      : build(P * W, [&](int i) {
                          return i % W < n ? strf("%s_r%d[%d]", name(k).c_str(),
                                                  i % W, i / W)
                                           : std::string("0");
                        });
      } else if (o.load) {
        init = build(P * W,
                     [&](int i) {
                       return i % W < n ? slab(k, i / W, i % W) : std::string("0");
                     },
                     ints ? "vl" : "vd");
      }
      line((ints ? it(P * W) : vt(P * W)) + " " + name(k) + " = " + init + ";");
    }
    for (std::size_t pc = R.s; pc < R.e; ++pc) {
      if (R.labels.count(pc) != 0) line(strf("R%zu_%zu:;", R.s, pc));
      line("{");
      emit_rinsn(R, p_.code[pc], pc);
      line("}");
    }
    line(strf("R%zu_x:;", R.s));
    for (const auto& [k, o] : R.objs) {
      if (!o.store) continue;
      const int W = width(k);
      if (o.v && runs) {  // de-interleave, then one vector store per lane
        for (int l = 0; l < used(k); ++l)
          line(strf("%s%d(&%s, ", k.kind == 2 ? "sti" : "st", P,
                    slab(k, 0, l).c_str()) +
               (W == 1 ? name(k)
                       : build(P, [&](int j) {
                           return ev(name(k), P * W, j * W + l);
                         })) +
               ");");
        continue;
      }
      for (int j = 0; j < P; ++j)
        for (int l = 0; l < used(k); ++l)
          line(slab(k, j, l) + " = " +
               (o.v ? ev(name(k), P * W, j * W + l)
                : k.kind == 2
                    ? ielem({false, name(k), o.c}, P, j)
                    : strf("%s_%d", name(k).c_str(), l)) +
               ";");
    }
    line(strf("R%zu_n:;", R.s));
    line("}");
    line("if (fk[0] != kNoFault) goto L_fail;");
    for (const std::int32_t r : R.uw_out) line(strf("u[%d] = U%d;", r, r));
    line("}");
    cur_ = nullptr;
  }

  /// One instruction of a region, on the chunk's locals.
  void emit_rinsn(const Region& R, const Insn& in, std::size_t pc) {
    cur_pc_ = pc;
    const int P = R.P;
    const int w = in.lanes;
    const bool f32 = (in.aux & kRoundF32) != 0;
    const auto key = [&](const std::string& t) {
      return strf("bj, %zu, %s", pc, t.c_str());
    };
    fault_key_ = key("t0");  // uniform faults: every item of the chunk
    const std::string cnt = item_count(in, strf("%d", P));
    if (!cnt.empty()) line(cnt);
    switch (in.op) {
      case Op::UConst:
      case Op::UArg:
      case Op::UBuiltin:
      case Op::UAdd:
      case Op::USub:
      case Op::UMul:
      case Op::UDiv:
      case Op::UMod:
      case Op::ULt:
      case Op::UAnd:
      case Op::UMov:
      case Op::UStepCheck:
        emit_insn(in, pc);
        break;
      case Op::Jmp:
        line(jump(R, pc, static_cast<std::size_t>(in.imm)));
        break;
      case Op::JzU:
        line("if (" + u(in.a) + " == 0) " +
             jump(R, pc, static_cast<std::size_t>(in.imm)));
        break;
      case Op::JgeU:
        line("if (" + u(in.a) + " >= " + u(in.b) + ") " +
             jump(R, pc, static_cast<std::size_t>(in.imm)));
        break;
      case Op::VBuiltin: {
        const int dim = in.aux & 1;
        const auto fn = static_cast<BuiltinFn>(in.aux >> 1);
        if (fn != BuiltinFn::LocalId && fn != BuiltinFn::GlobalId) {
          write_i(R, in.dst, {false, builtin_expr(in.aux), 0});
          break;
        }
        // Item j of the chunk is j further along local id d than item 0.
        const std::string t0 = dim == 0 ? "(t0 % LSX)" : "(t0 / LSX)";
        write_i(R, in.dst,
                {false,
                 fn == BuiltinFn::LocalId
                     ? t0
                     : (dim == 0 ? "(gx * LSX + " : "(gy * LSY + ") + t0 + ")",
                 dim == R.d && P > 1 ? 1 : 0});
        break;
      }
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VLt:
      case Op::VAnd: {
        // A scalar destination has a known affine form, so the op applied
        // to item 0's values yields item 0's value (see collect_affine).
        const IVal x = iopnd(R, in.flags & kAUni, in.a);
        const IVal y = iopnd(R, in.flags & kBUni, in.b);
        const ObjInfo& o = obj(R, ikey(in.dst));
        const bool v = o.v && P > 1;
        const std::string a = o.v ? itile(x, P) : x.e;
        const std::string b = o.v ? itile(y, P) : y.e;
        std::string e;
        switch (in.op) {
          case Op::VAdd: e = a + " + " + b; break;
          case Op::VSub: e = a + " - " + b; break;
          case Op::VMul: e = a + " * " + b; break;
          case Op::VLt:
            e = v ? "((" + a + " < " + b + ") & 1)"
                  : "((" + a + " < " + b + ") ? 1 : 0)";
            break;
          default:
            e = v ? "(((" + a + " != 0) & (" + b + " != 0)) & 1)"
                  : "((" + a + " != 0 && " + b + " != 0) ? 1 : 0)";
            break;
        }
        write_i(R, in.dst, {o.v, e, o.c});
        break;
      }
      case Op::VDiv:
      case Op::VMod: {
        const bool div = in.op == Op::VDiv;
        const std::string msg = div ? "interp: integer division by zero"
                                    : "interp: integer modulo by zero";
        const IVal x = iopnd(R, in.flags & kAUni, in.a);
        const IVal y = iopnd(R, in.flags & kBUni, in.b);
        if (!obj(R, ikey(in.dst)).v) {  // both operands uniform
          line("const long long yy = " + y.e + ";");
          line("if (yy == 0) " + fail_msg(msg));
          write_i(R, in.dst, {false, x.e + (div ? " / yy" : " % yy"), 0});
          break;
        }
        line("const " + it(P) + " xx = " + itile(x, P) + ";");
        line("const " + it(P) + " yy = " + itile(y, P) + ";");
        line(it(P) + " rr = {};");
        fault_key_ = key(strf("t0 + j * %lld", item_step(R)));
        line(strf("for (long long j = 0; j < %d; ++j) { if (yy[j] == 0) ", P) +
             fail_msg(msg) + (div ? " rr[j] = xx[j] / yy[j]; }"
                                  : " rr[j] = xx[j] % yy[j]; }"));
        write_i(R, in.dst, {true, "rr", 0});
        break;
      }
      case Op::VMovU:
        write_i(R, in.dst, {false, u(in.a), 0});
        break;
      case Op::VMov:
        write_i(R, in.dst, iopnd(R, false, in.a));
        break;
      case Op::FConst: {
        std::vector<std::string> l;
        for (int k = 0; k < w; ++k)
          l.push_back(strf("kFpool.v[%lld]", static_cast<long long>(in.imm) + k));
        write_f(R, in.dst, uni(l), w, w);
        break;
      }
      case Op::FArg: {
        std::vector<std::string> l(static_cast<std::size_t>(w), "0.0");
        l[0] = f32 ? strf("(double)(float)arg_f[%d]", in.a) : strf("arg_f[%d]", in.a);
        write_f(R, in.dst, uni(l), w, w);
        break;
      }
      case Op::FMov:
        write_f(R, in.dst, read_f(R, in.a, w), w, in.b);
        break;
      case Op::FSplat: {
        Val x = read_f(R, in.a, 1);
        if (x.v) {
          const ObjKey k = fobj(R, in.a, false);
          x.vec = build(P * w, [&](int i) { return felem(R, k, i / w, 0); });
          x.w = w;
        } else {
          x = uni(std::vector<std::string>(static_cast<std::size_t>(w), x.lanes[0]));
        }
        write_f(R, in.dst, x, w, w);
        break;
      }
      case Op::FLane:
        write_f(R, in.dst,
                in.imm < in.aux ? read_f(R, in.a, 1, static_cast<int>(in.imm))
                                : uni({"0.0"}),
                1, 1);
        break;
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FMad: {
        std::vector<Val> xs = {read_f(R, in.a, w), read_f(R, in.b, w)};
        if (in.op == Op::FMad) xs.push_back(read_f(R, in.c, w));
        const char* op = in.op == Op::FAdd ? " + " : in.op == Op::FSub ? " - " : " * ";
        write_f(R, in.dst, arith(R, xs, f32, [&](const std::vector<std::string>& o) {
                  return in.op == Op::FMad ? o[0] + " * " + o[1] + " + " + o[2]
                                           : o[0] + op + o[1];
                }), w, w);
        break;
      }
      case Op::FmaPP: {
        const std::vector<Val> xs = {read_f(R, in.c, w),
                                     read_p(R, in.b, in.imm, w),
                                     read_p(R, in.a, in.dst, w)};
        write_p(R, in.a, in.dst, arith(R, xs, f32, [](const std::vector<std::string>& o) {
                  return o[0] + " * " + o[1] + " + " + o[2];
                }), w);
        break;
      }
      case Op::SplatLaneP: {
        const Val e = read_p(R, in.a, in.imm, 1);
        Val x;
        if (e.v) {
          x.v = true;
          x.w = w;
          x.vec = build(P * w, [&](int i) { return pelem(R, in.a, in.imm, i / w); });
        } else {
          x = uni(std::vector<std::string>(static_cast<std::size_t>(w), e.lanes[0]));
        }
        write_f(R, in.dst, x, w, in.b);
        break;
      }
      case Op::LoadP:
      case Op::StoreP: {
        const ArrayRef& ar = p_.arrays[static_cast<std::size_t>(in.a)];
        if (in.imm < 0 || in.imm + w > ar.len) {  // faults on every item
          line("const long long idx = " + imm64(in.imm) + ";");
          line(mem_fails(in, ""));
        } else if (in.op == Op::LoadP) {
          write_f(R, in.dst, read_p(R, in.a, in.imm, w), w, w);
        } else {
          write_p(R, in.a, in.imm, read_f(R, in.c, w), w);
        }
        break;
      }
      case Op::LoadG:
      case Op::LoadL:
        emit_rload(R, in, pc);
        break;
      default:
        fail(strf("native emit: opcode %d in a region", static_cast<int>(in.op)));
    }
    fault_key_.clear();
  }

  /// A global or local load in a region: one bounds check per chunk (the
  /// least faulting item wins), then one scalar load per lane for an
  /// address uniform across the chunk, one vector load for addresses
  /// that step by the lane count from item to item, else a gather.
  void emit_rload(const Region& R, const Insn& in, std::size_t pc) {
    const int P = R.P;
    const int w = in.lanes;
    const bool global = in.op == Op::LoadG;
    const bool f32 = global && (in.aux & kElemF32) != 0;
    std::string base;
    if (global) {
      line(strf("const %s* const gp_ = %s[%d];", f32 ? "float" : "double",
                f32 ? "arg_f32" : "arg_f64", in.a));
      line(strf("const long long en_ = arg_elems[%d];", in.a));
      base = "gp_";
    } else {
      base = strf("(larr + %d)",
                  p_.arrays[static_cast<std::size_t>(in.a)].offset);
    }
    const std::string len = mem_len(in, "_");
    const std::string fails = mem_fails(in, "_");  // uniform: item t0
    const std::string cvt = f32 ? "(double)" : "";
    Val x;
    x.w = w;
    if (addr_uniform(R, in)) {
      std::string a;
      if (in.flags & kImmAddr) {
        a = imm64(in.imm);
      } else if (in.flags & kBUni) {
        a = u(in.b);
      } else {
        a = strf("I%d", in.b);
      }
      line("const long long ia_ = " + a + ";");
      line("{ const long long idx = ia_; if (" + out_of_range(in, "_") + ") " +
           fails + " }");
      for (int l = 0; l < w; ++l)
        x.lanes.push_back(strf("%s%s[ia_ + %d]", cvt.c_str(), base.c_str(), l));
      write_f(R, in.dst, x, w, w);
      return;
    }
    const IVal av = iopnd(R, false, in.b);
    const auto at = [&](int j) { return ielem(av, P, j); };
    std::string bad;
    if (av.v) {  // any item out of range, as a vector OR-reduction
      line("const " + it(P) + " av_ = " + av.e + ";");
      line(strf("const %s bad_ = (av_ < 0) | (av_ + %d > %s);", it(P).c_str(),
                w, len.c_str()));
      bad = "bad_[0]";
      for (int j = 1; j < P; ++j) bad += strf(" | bad_[%d]", j);
    } else {  // item addresses step by c: check the extremes
      const std::string lo = at(av.c < 0 ? P - 1 : 0);
      const std::string hi = at(av.c < 0 ? 0 : P - 1);
      bad = lo + " < 0 || " + hi + strf(" + %d > ", w) + len;
    }
    // The least faulting item wins.
    fault_key_ = strf("bj, %zu, t0 + j * %lld", pc, item_step(R));
    line("if (" + bad + ") {");
    std::string items;
    for (int j = 0; j < P; ++j) items += (j ? ", " : "") + at(j);
    line("  const long long aa_[] = {" + items + "};");
    line(strf("  const long long j = first_oob(aa_, %d, %d, %s);", P, w,
              len.c_str()));
    line("  const long long idx = aa_[j]; " + mem_fails(in, "_"));
    line("}");
    x.v = true;
    const int n = P * w;
    if (P == 1 || (!av.v && av.c == w)) {
      const std::string p0 = base + " + " + at(0);
      x.vec = n == 1 ? cvt + "(" + p0 + ")[0]"
                     : strf("%s%d(%s)", f32 ? "ldf" : "ld", n, p0.c_str());
    } else {
      x.vec = build(n, [&](int i) {
        return strf("%s%s[%s + %d]", cvt.c_str(), base.c_str(),
                    at(i / w).c_str(), i % w);
      });
    }
    write_f(R, in.dst, x, w, w);
  }

  const Kernel& k_;
  const CompiledKernel& p_;
  const int simd_;                ///< vector width in doubles
  const std::int64_t ni_const_;   ///< compile-time NI, 0 when runtime
  std::string out_;
  std::vector<char> is_target_;
  std::set<std::int32_t> zero_elide_;
  std::set<std::size_t> fused_skip_;          ///< producers folded away
  std::map<std::size_t, std::size_t> fused_;  ///< consumer -> producer
  struct Item {
    const Insn* prod;  ///< fused producer, or null
    const Insn* in;
  };
  std::vector<Item> group_;          ///< the open merged pass
  std::set<std::int32_t> group_vi_;  ///< vi registers the group writes
  // Region analyses and plans.
  std::map<std::int32_t, FShape> fshape_;  ///< by register base
  std::vector<int> pgran_;                 ///< segment length per array
  std::vector<std::optional<std::int64_t>> uconst_;
  std::vector<Aff> aff_;
  std::vector<std::vector<std::uint64_t>> live_;
  std::vector<Region> regions_;  ///< in program order
  const Region* cur_ = nullptr;  ///< the region being emitted
  std::string fault_key_;        ///< fail_stmt's region fault key, if any
  std::size_t cur_pc_ = 0;       ///< the region instruction being emitted
  int tmp_ = 0;                  ///< temporaries named so far
};

}  // namespace

std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog, int simd_width) {
  Emitter e(kernel, prog, simd_width);
  return e.run();
}

}  // namespace gemmtune::ir
