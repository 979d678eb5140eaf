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
// Every per-item op is then a set of unit-stride runs over the
// work-items, whatever the kernel's own vector width. Consecutive
// unmasked per-item ops (see item_op) are merged into one pass over the
// items, printed as chunks of the host vector width (SIMD mode,
// NativeEmitOptions::simd_width > 0) plus a scalar tail, or as a plain
// scalar loop. Work-items never share a register or private slot, and
// each item still runs its instructions and lanes in program order, so
// the reordering across items is invisible: registers are not observable
// (only buffers, counters and error text are). Local stores (items may
// hit the same address) and global stores (a faulting launch must leave
// the VM's partial stores) stay per-item loops in item order, as do
// masked ops.
//
// In the vector chunks, f32 rounding is an element-wise
// double->float->double conversion pair — the narrowing is pinned per
// element, so no compiler pass can re-associate it and every lane still
// rounds exactly like the VM.
#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
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
  Emitter(const Kernel& k, const CompiledKernel& p, const NativeEmitOptions& o)
      : k_(k),
        p_(p),
        simd_(vectorizable_width(o.simd_width) ? o.simd_width : 0),
        ni_const_(k.reqd_local[0] > 0 ? k.reqd_local[0] * k.reqd_local[1]
                                      : 0) {}

  std::string run() {
    collect_labels();
    collect_zero_elisions();
    collect_fusions();
    prologue();
    for (std::size_t i = 0; i < p_.code.size(); ++i) {
      if (is_target_[i]) {
        flush();  // a jump may enter here
        line(strf("L%zu:;", i));
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
  static std::string u(std::int32_t r) { return strf("u[%d]", r); }
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
    if (simd_ <= 0) {
      line("for (long long t = 0; t < NI; ++t) { " + body(0) + "}");
      return;
    }
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
  std::string fail_stmt(const std::string& fmt,
                        const std::vector<std::string>& args) {
    std::string s = "{ std::snprintf(err, (std::size_t)err_cap, " + fmt;
    for (const auto& a : args) s += ", " + a;
    s += "); goto L_fail; }";
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
  /// SIMD mode only — the scalar emitter stays the reference translation.
  void collect_fusions() {
    if (simd_ <= 0) return;
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
    raw(strf("// Generated by the gemmtune native backend (emitter v3, "
             "%s) for\n",
             simd_ > 0 ? strf("simd w=%d", simd_).c_str() : "scalar"));
    raw("// kernel '" + k_.name + "'. Mirrors kernelir/vm.cpp semantics.\n");
    raw("#include <cstddef>\n#include <cstdio>\n#include <cstring>\n\n");
    // Host-width vectors over consecutive work-items (GCC/Clang vector
    // extensions). Loads and stores go through memcpy so the slab
    // pointers need no alignment; rndN converts every lane
    // double->float->double individually, which is exactly the VM's
    // (double)(float) rounding chain (GCC 12 splits the generic 8-lane
    // widening into 128-bit pieces, so AVX-512 uses the instructions
    // directly). The gathers read one element per item at that item's
    // own index (`gatp`/`sctp`: a private slot, whose run for item j is
    // offset by j). The helpers are forced inline: a whole kernel is one
    // function, past the size where GCC stops inlining on its own.
    if (simd_ > 0) {
      const int s = simd_;
      const auto lanes = [s](const auto& elem) {
        std::string l;
        for (int j = 0; j < s; ++j) l += (j ? ", " : "") + elem(j);
        return l;
      };
      const auto def = [this](const std::string& d) {
        raw("inline __attribute__((always_inline)) " + d + "\n");
      };
      const std::string vd = strf("vd%d", s), vl = strf("vl%d", s);
      if (s == 8)
        raw("#if defined(__AVX512F__)\n#include <immintrin.h>\n#endif\n");
      raw("namespace {\n");
      raw(strf("typedef double %s __attribute__((vector_size(%d)));\n",
               vd.c_str(), 8 * s));
      raw(strf("typedef float vs%d __attribute__((vector_size(%d)));\n", s,
               4 * s));
      raw(strf("typedef long long %s __attribute__((vector_size(%d)));\n",
               vl.c_str(), 8 * s));
      def(strf("%s ld%d(const double* p) ", vd.c_str(), s) +
          "{ " + vd + " v; __builtin_memcpy(&v, p, sizeof v); return v; }");
      def(strf("void st%d(double* p, %s v) ", s, vd.c_str()) +
          "{ __builtin_memcpy(p, &v, sizeof v); }");
      const std::string generic_rnd = strf(
          "{ return __builtin_convertvector(__builtin_convertvector(v, vs%d), "
          "%s); }",
          s, vd.c_str());
      if (s == 8) {
        raw("#if defined(__AVX512F__)\n");
        def("vd8 rnd8(vd8 v) { return (vd8)_mm512_cvtps_pd("
            "_mm512_cvtpd_ps((__m512d)v)); }");
        raw("#else\n");
      }
      def(strf("%s rnd%d(%s v) ", vd.c_str(), s, vd.c_str()) + generic_rnd);
      if (s == 8) raw("#endif\n");
      def(strf("%s spl%d(double x) { return %s{", vd.c_str(), s, vd.c_str()) +
          lanes([](int) { return std::string("x"); }) + "}; }");
      def(strf("%s spli%d(long long x) { return %s{", vl.c_str(), s,
               vl.c_str()) +
          lanes([](int) { return std::string("x"); }) + "}; }");
      def(strf("%s ldi%d(const long long* p) ", vl.c_str(), s) + "{ " + vl +
          " v; __builtin_memcpy(&v, p, sizeof v); return v; }");
      def(strf("void sti%d(long long* p, %s v) ", s, vl.c_str()) +
          "{ __builtin_memcpy(p, &v, sizeof v); }");
      def(strf("%s gat%d(const double* p, const long long* i) { return %s{",
               vd.c_str(), s, vd.c_str()) +
          lanes([](int j) { return strf("p[i[%d]]", j); }) + "}; }");
      def(strf("%s gatf%d(const float* p, const long long* i) { return %s{",
               vd.c_str(), s, vd.c_str()) +
          lanes([](int j) { return strf("(double)p[i[%d]]", j); }) + "}; }");
      def(strf("%s gatp%d(const double* p, const long long* i, long long ni) "
               "{ return %s{",
               vd.c_str(), s, vd.c_str()) +
          lanes([](int j) { return strf("p[i[%d] * ni + %d]", j, j); }) +
          "}; }");
      std::string sct;
      for (int j = 0; j < s; ++j)
        sct += strf(" p[i[%d] * ni + %d] = v[%d];", j, j, j);
      def(strf("void sctp%d(double* p, const long long* i, long long ni, "
               "%s v) {",
               s, vd.c_str()) +
          sct + " }");
      raw("}  // namespace\n\n");
    }
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

  /// Counter update for a member's whole pass, or (`per_item`) for one
  /// active item of its masked form; "" when the op counts nothing.
  static std::string item_count(const Insn& in, bool per_item = false) {
    const auto add = [per_item](const char* c, int k) {
      return per_item ? strf("%s += %d; ", c, k)
                      : strf("%s += (unsigned long long)(%d * NI); ", c, k);
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
               (per_item ? "++c_mads; " : "c_mads += (unsigned long long)NI; ");
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
        line(t_loop_open(true) + item_body(in, 0, "") + item_count(in, true) +
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
             (masked ? item_count(in, true) : "") + "}");
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
    if (simd_ <= 0) {
      line(scan);
      return;
    }
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

  const Kernel& k_;
  const CompiledKernel& p_;
  const int simd_;                ///< vector width in doubles; 0 = scalar
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
};

}  // namespace

std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog,
                               const NativeEmitOptions& opts) {
  Emitter e(kernel, prog, opts);
  return e.run();
}

}  // namespace gemmtune::ir
