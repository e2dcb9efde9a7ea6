#include "src/bpf/verifier.h"

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace syrup::bpf {
namespace {

constexpr uint64_t kU64Max = ~uint64_t{0};
constexpr int64_t kS64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kS64Max = std::numeric_limits<int64_t>::max();
constexpr uint64_t kU32Max = 0xffffffffull;

// Largest scalar magnitude accepted as a pointer offset adjustment, and the
// largest cumulative pointer offset tracked. Far beyond any real packet or
// map value, small enough that offset arithmetic can never overflow int64.
constexpr int64_t kMaxPtrDelta = int64_t{1} << 29;
constexpr int64_t kMaxPtrOff = int64_t{1} << 30;

// ---------------------------------------------------------------------------
// Known-bits domain (a "tnum"): `value` holds bits known to be set, `mask`
// the unknown bits. A concrete x is represented iff x = value | (s & mask)
// for some s, i.e. x agrees with `value` on every bit outside `mask`.
// Transfer functions follow the classic eBPF tnum algebra.
// ---------------------------------------------------------------------------

struct Tnum {
  uint64_t value = 0;
  uint64_t mask = kU64Max;
};

Tnum TnumConst(uint64_t v) { return Tnum{v, 0}; }
Tnum TnumUnknown() { return Tnum{0, kU64Max}; }

Tnum TnumAdd(Tnum a, Tnum b) {
  const uint64_t sm = a.mask + b.mask;
  const uint64_t sv = a.value + b.value;
  const uint64_t sigma = sm + sv;
  const uint64_t chi = sigma ^ sv;
  const uint64_t mu = chi | a.mask | b.mask;
  return Tnum{sv & ~mu, mu};
}

Tnum TnumSub(Tnum a, Tnum b) {
  const uint64_t dv = a.value - b.value;
  const uint64_t alpha = dv + a.mask;
  const uint64_t beta = dv - b.mask;
  const uint64_t chi = alpha ^ beta;
  const uint64_t mu = chi | a.mask | b.mask;
  return Tnum{dv & ~mu, mu};
}

Tnum TnumAnd(Tnum a, Tnum b) {
  const uint64_t alpha = a.value | a.mask;
  const uint64_t beta = b.value | b.mask;
  const uint64_t v = a.value & b.value;
  return Tnum{v, alpha & beta & ~v};
}

Tnum TnumOr(Tnum a, Tnum b) {
  const uint64_t v = a.value | b.value;
  const uint64_t mu = a.mask | b.mask;
  return Tnum{v, mu & ~v};
}

Tnum TnumLsh(Tnum a, uint8_t k) { return Tnum{a.value << k, a.mask << k}; }
Tnum TnumRsh(Tnum a, uint8_t k) { return Tnum{a.value >> k, a.mask >> k}; }
Tnum TnumArsh(Tnum a, uint8_t k) {
  return Tnum{static_cast<uint64_t>(static_cast<int64_t>(a.value) >> k),
              static_cast<uint64_t>(static_cast<int64_t>(a.mask) >> k)};
}

// True iff every concrete value representable by `b` is representable by `a`.
bool TnumIn(Tnum a, Tnum b) {
  if ((b.mask & ~a.mask) != 0) {
    return false;
  }
  return a.value == (b.value & ~a.mask);
}

// Intersection; false when the two disagree on a bit both know (no concrete
// value satisfies both).
bool TnumIntersect(Tnum a, Tnum b, Tnum* out) {
  if (((a.value ^ b.value) & ~(a.mask | b.mask)) != 0) {
    return false;
  }
  const uint64_t mu = a.mask & b.mask;
  out->value = (a.value | b.value) & ~mu;
  out->mask = mu;
  return true;
}

// Smallest mask of the form 2^k - 1 covering every value in [0, v].
uint64_t MaskUpTo(uint64_t v) {
  if (v == 0) {
    return 0;
  }
  const int width = 64 - __builtin_clzll(v);
  return width >= 64 ? kU64Max : (uint64_t{1} << width) - 1;
}

// ---------------------------------------------------------------------------
// Per-register abstract value: a type tag plus, for scalars, unsigned and
// signed intervals and known bits; for pointers, an offset interval from the
// region base (variable offsets are first-class, which is what makes
// range-guarded header parsing verifiable).
// ---------------------------------------------------------------------------

enum class RegKind : uint8_t {
  kNotInit,
  kScalar,
  kPktPtr,          // pointer into packet; off bytes past pkt_start
  kPktEnd,          // the pkt_end sentinel pointer
  kStackPtr,        // pointer into the stack frame; off <= 0, frame top = 0
  kMapValueOrNull,  // result of map_lookup before the NULL check
  kMapValue,        // map value pointer proven non-NULL
  kNullConst,       // map value pointer proven NULL
  kConstMapPtr,     // loaded by ldmapfd
};

const char* KindName(RegKind kind) {
  switch (kind) {
    case RegKind::kNotInit: return "uninit";
    case RegKind::kScalar: return "scalar";
    case RegKind::kPktPtr: return "pkt";
    case RegKind::kPktEnd: return "pkt_end";
    case RegKind::kStackPtr: return "stack";
    case RegKind::kMapValueOrNull: return "map_value_or_null";
    case RegKind::kMapValue: return "map_value";
    case RegKind::kNullConst: return "null";
    case RegKind::kConstMapPtr: return "map_ptr";
  }
  return "?";
}

bool IsPointerKind(RegKind kind) {
  switch (kind) {
    case RegKind::kPktPtr:
    case RegKind::kPktEnd:
    case RegKind::kStackPtr:
    case RegKind::kMapValueOrNull:
    case RegKind::kMapValue:
    case RegKind::kConstMapPtr:
      return true;
    default:
      return false;
  }
}

struct RegState {
  RegKind kind = RegKind::kNotInit;
  // Scalar domain.
  uint64_t umin = 0;
  uint64_t umax = kU64Max;
  int64_t smin = kS64Min;
  int64_t smax = kS64Max;
  Tnum tnum = TnumUnknown();
  // Pointer domain: offset interval from the region base.
  int64_t off_min = 0;
  int64_t off_max = 0;
  int32_t map_index = -1;   // which program map for map kinds
  int32_t origin_pc = -1;   // pc of the map_lookup call (NULL-check tracking)

  bool IsConst() const { return kind == RegKind::kScalar && umin == umax; }
  uint64_t ConstVal() const { return umin; }

  static RegState UnknownScalar() {
    RegState r;
    r.kind = RegKind::kScalar;
    return r;
  }
  static RegState Known(uint64_t v) {
    RegState r;
    r.kind = RegKind::kScalar;
    r.umin = r.umax = v;
    r.smin = r.smax = static_cast<int64_t>(v);
    r.tnum = TnumConst(v);
    return r;
  }
  static RegState Range(uint64_t lo, uint64_t hi) {
    RegState r;
    r.kind = RegKind::kScalar;
    r.umin = lo;
    r.umax = hi;
    if (hi <= static_cast<uint64_t>(kS64Max)) {
      r.smin = static_cast<int64_t>(lo);
      r.smax = static_cast<int64_t>(hi);
    }
    r.tnum = Tnum{0, MaskUpTo(hi)};
    return r;
  }
  static RegState Pointer(RegKind kind, int32_t map_index = -1) {
    RegState r;
    r.kind = kind;
    r.map_index = map_index;
    return r;
  }
};

// Re-establishes consistency between the three scalar views after any of
// them was tightened. Returns false when the views contradict (the abstract
// state is infeasible, i.e. no concrete execution reaches it).
bool SyncBounds(RegState& r) {
  r.umin = std::max(r.umin, r.tnum.value);
  r.umax = std::min(r.umax, r.tnum.value | r.tnum.mask);
  // An unsigned range that does not cross the sign boundary is also a valid
  // signed range.
  if (static_cast<int64_t>(r.umin) <= static_cast<int64_t>(r.umax)) {
    r.smin = std::max(r.smin, static_cast<int64_t>(r.umin));
    r.smax = std::min(r.smax, static_cast<int64_t>(r.umax));
  }
  // A signed range entirely on one side of zero maps onto an unsigned range.
  if (r.smin >= 0 || r.smax < 0) {
    r.umin = std::max(r.umin, static_cast<uint64_t>(r.smin));
    r.umax = std::min(r.umax, static_cast<uint64_t>(r.smax));
  }
  if (r.umin > r.umax || r.smin > r.smax) {
    return false;
  }
  if (r.umin == r.umax) {
    if ((r.umin & ~r.tnum.mask) != r.tnum.value) {
      return false;
    }
    const int64_t sv = static_cast<int64_t>(r.umin);
    if (sv < r.smin || sv > r.smax) {
      return false;
    }
    r.tnum = TnumConst(r.umin);
    r.smin = r.smax = sv;
  }
  return true;
}

// Clamp a tnum to the bit width implied by the unsigned range: bits above
// umax's top bit are known zero even if the tnum has not discovered that.
Tnum EffTnum(const RegState& r) {
  const uint64_t m = MaskUpTo(r.umax);
  return Tnum{r.tnum.value & m, r.tnum.mask & m};
}

// ---------------------------------------------------------------------------
// Scalar ALU transfer functions.
// ---------------------------------------------------------------------------

enum class AluKind { kAdd, kSub, kMul, kDiv, kMod, kOr, kAnd, kLsh, kRsh, kArsh };

bool AluKindOf(Op op, AluKind* out) {
  switch (op) {
    case Op::kAddReg: case Op::kAddImm: *out = AluKind::kAdd; return true;
    case Op::kSubReg: case Op::kSubImm: *out = AluKind::kSub; return true;
    case Op::kMulReg: case Op::kMulImm: *out = AluKind::kMul; return true;
    case Op::kDivReg: case Op::kDivImm: *out = AluKind::kDiv; return true;
    case Op::kModReg: case Op::kModImm: *out = AluKind::kMod; return true;
    case Op::kOrReg:  case Op::kOrImm:  *out = AluKind::kOr;  return true;
    case Op::kAndReg: case Op::kAndImm: *out = AluKind::kAnd; return true;
    case Op::kLshReg: case Op::kLshImm: *out = AluKind::kLsh; return true;
    case Op::kRshReg: case Op::kRshImm: *out = AluKind::kRsh; return true;
    case Op::kArshReg: case Op::kArshImm: *out = AluKind::kArsh; return true;
    default: return false;
  }
}

// Exact result for two constants, mirroring run-time semantics
// (divide/mod by zero yield 0, shift amounts masked to 6 bits).
uint64_t AluConst(AluKind k, uint64_t x, uint64_t y) {
  switch (k) {
    case AluKind::kAdd: return x + y;
    case AluKind::kSub: return x - y;
    case AluKind::kMul: return x * y;
    case AluKind::kDiv: return y == 0 ? 0 : x / y;
    case AluKind::kMod: return y == 0 ? 0 : x % y;
    case AluKind::kOr:  return x | y;
    case AluKind::kAnd: return x & y;
    case AluKind::kLsh: return x << (y & 63);
    case AluKind::kRsh: return x >> (y & 63);
    case AluKind::kArsh:
      return static_cast<uint64_t>(static_cast<int64_t>(x) >> (y & 63));
  }
  return 0;
}

RegState AluApply(AluKind k, const RegState& a, const RegState& b) {
  if (a.IsConst() && b.IsConst()) {
    return RegState::Known(AluConst(k, a.ConstVal(), b.ConstVal()));
  }
  RegState out = RegState::UnknownScalar();
  switch (k) {
    case AluKind::kAdd: {
      out.tnum = TnumAdd(a.tnum, b.tnum);
      uint64_t lo = 0;
      uint64_t hi = 0;
      if (!__builtin_add_overflow(a.umin, b.umin, &lo) &&
          !__builtin_add_overflow(a.umax, b.umax, &hi)) {
        out.umin = lo;
        out.umax = hi;
      }
      int64_t slo = 0;
      int64_t shi = 0;
      if (!__builtin_add_overflow(a.smin, b.smin, &slo) &&
          !__builtin_add_overflow(a.smax, b.smax, &shi)) {
        out.smin = slo;
        out.smax = shi;
      }
      break;
    }
    case AluKind::kSub: {
      out.tnum = TnumSub(a.tnum, b.tnum);
      if (a.umin >= b.umax) {  // cannot wrap
        out.umin = a.umin - b.umax;
        out.umax = a.umax - b.umin;
      }
      int64_t slo = 0;
      int64_t shi = 0;
      if (!__builtin_sub_overflow(a.smin, b.smax, &slo) &&
          !__builtin_sub_overflow(a.smax, b.smin, &shi)) {
        out.smin = slo;
        out.smax = shi;
      }
      break;
    }
    case AluKind::kMul: {
      uint64_t hi = 0;
      if (!__builtin_mul_overflow(a.umax, b.umax, &hi)) {
        out.umin = a.umin * b.umin;
        out.umax = hi;
        if (hi <= static_cast<uint64_t>(kS64Max)) {
          out.smin = static_cast<int64_t>(out.umin);
          out.smax = static_cast<int64_t>(hi);
        }
      }
      break;
    }
    case AluKind::kDiv:
      if (b.IsConst()) {
        const uint64_t c = b.ConstVal();
        if (c == 0) {
          return RegState::Known(0);
        }
        out = RegState::Range(a.umin / c, a.umax / c);
      } else {
        out = RegState::Range(0, a.umax);
      }
      break;
    case AluKind::kMod:
      if (b.IsConst()) {
        const uint64_t c = b.ConstVal();
        if (c == 0) {
          return RegState::Known(0);
        }
        if (a.umax < c) {
          out = a;  // identity
        } else {
          out = RegState::Range(0, c - 1);
        }
      } else {
        // x % y <= x, and mod-by-zero yields 0; either way <= a.umax.
        out = RegState::Range(0, a.umax);
      }
      break;
    case AluKind::kAnd:
      out.tnum = TnumAnd(EffTnum(a), EffTnum(b));
      out.umin = 0;
      out.umax = std::min(a.umax, b.umax);
      if (out.umax <= static_cast<uint64_t>(kS64Max)) {
        out.smin = 0;
        out.smax = static_cast<int64_t>(out.umax);
      }
      break;
    case AluKind::kOr:
      out.tnum = TnumOr(EffTnum(a), EffTnum(b));
      out.umin = std::max(a.umin, b.umin);
      out.umax = MaskUpTo(a.umax) | MaskUpTo(b.umax);
      if (out.umax <= static_cast<uint64_t>(kS64Max)) {
        out.smin = static_cast<int64_t>(out.umin);
        out.smax = static_cast<int64_t>(out.umax);
      }
      break;
    case AluKind::kLsh:
      if (b.IsConst()) {
        const uint8_t sh = static_cast<uint8_t>(b.ConstVal() & 63);
        if (sh == 0) {
          out = a;
          break;
        }
        out.tnum = TnumLsh(a.tnum, sh);
        if ((a.umax >> (64 - sh)) == 0) {  // no bits shifted out
          out.umin = a.umin << sh;
          out.umax = a.umax << sh;
          if (out.umax <= static_cast<uint64_t>(kS64Max)) {
            out.smin = static_cast<int64_t>(out.umin);
            out.smax = static_cast<int64_t>(out.umax);
          }
        }
      }
      break;
    case AluKind::kRsh:
      if (b.IsConst()) {
        const uint8_t sh = static_cast<uint8_t>(b.ConstVal() & 63);
        if (sh == 0) {
          out = a;
          break;
        }
        out.tnum = TnumRsh(a.tnum, sh);
        out.umin = a.umin >> sh;
        out.umax = a.umax >> sh;
        out.smin = static_cast<int64_t>(out.umin);
        out.smax = static_cast<int64_t>(out.umax);
      } else {
        out.umin = 0;
        out.umax = a.umax;
        if (a.umax <= static_cast<uint64_t>(kS64Max)) {
          out.smin = 0;
          out.smax = static_cast<int64_t>(a.umax);
        }
      }
      break;
    case AluKind::kArsh:
      if (b.IsConst()) {
        const uint8_t sh = static_cast<uint8_t>(b.ConstVal() & 63);
        if (sh == 0) {
          out = a;
          break;
        }
        out.tnum = TnumArsh(a.tnum, sh);
        out.smin = a.smin >> sh;
        out.smax = a.smax >> sh;
        if (a.smin >= 0) {
          out.umin = a.umin >> sh;
          out.umax = a.umax >> sh;
        }
      } else if (a.smin >= 0) {
        out.umin = 0;
        out.umax = a.umax;
        out.smin = 0;
        out.smax = a.smax;
      }
      break;
  }
  if (!SyncBounds(out)) {
    // The transfer function over-approximates a feasible input, so a
    // contradiction only means precision was lost; degrade gracefully.
    return RegState::UnknownScalar();
  }
  return out;
}

// 32-bit move: value truncated then zero-extended.
RegState Truncate32(const RegState& src) {
  RegState out = RegState::UnknownScalar();
  out.tnum = Tnum{src.tnum.value & kU32Max, src.tnum.mask & kU32Max};
  if (src.umax <= kU32Max) {
    out.umin = src.umin;
    out.umax = src.umax;
  } else {
    out.umin = 0;
    out.umax = kU32Max;
  }
  out.smin = static_cast<int64_t>(out.umin);
  out.smax = static_cast<int64_t>(out.umax);
  if (!SyncBounds(out)) {
    return RegState::UnknownScalar();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Branch conditions: decide statically when possible, otherwise narrow the
// operand ranges on each edge (condition-directed refinement).
// ---------------------------------------------------------------------------

enum class Cmp {
  kEq, kNe, kGtU, kGeU, kLtU, kLeU, kGtS, kGeS, kLtS, kLeS, kSet, kNset,
};

Cmp CmpOf(Op op) {
  switch (op) {
    case Op::kJeqReg: case Op::kJeqImm: return Cmp::kEq;
    case Op::kJneReg: case Op::kJneImm: return Cmp::kNe;
    case Op::kJgtReg: case Op::kJgtImm: return Cmp::kGtU;
    case Op::kJgeReg: case Op::kJgeImm: return Cmp::kGeU;
    case Op::kJltReg: case Op::kJltImm: return Cmp::kLtU;
    case Op::kJleReg: case Op::kJleImm: return Cmp::kLeU;
    case Op::kJsgtReg: case Op::kJsgtImm: return Cmp::kGtS;
    case Op::kJsgeReg: case Op::kJsgeImm: return Cmp::kGeS;
    case Op::kJsltReg: case Op::kJsltImm: return Cmp::kLtS;
    case Op::kJsleReg: case Op::kJsleImm: return Cmp::kLeS;
    default: return Cmp::kSet;  // kJsetReg / kJsetImm
  }
}

Cmp Inverse(Cmp c) {
  switch (c) {
    case Cmp::kEq: return Cmp::kNe;
    case Cmp::kNe: return Cmp::kEq;
    case Cmp::kGtU: return Cmp::kLeU;
    case Cmp::kGeU: return Cmp::kLtU;
    case Cmp::kLtU: return Cmp::kGeU;
    case Cmp::kLeU: return Cmp::kGtU;
    case Cmp::kGtS: return Cmp::kLeS;
    case Cmp::kGeS: return Cmp::kLtS;
    case Cmp::kLtS: return Cmp::kGeS;
    case Cmp::kLeS: return Cmp::kGtS;
    case Cmp::kSet: return Cmp::kNset;
    case Cmp::kNset: return Cmp::kSet;
  }
  return Cmp::kEq;
}

// 1 = condition always holds, 0 = never holds, -1 = undecided.
int Decide(Cmp c, const RegState& a, const RegState& b) {
  switch (c) {
    case Cmp::kEq:
      if (a.umin > b.umax || a.umax < b.umin) return 0;
      if (a.smin > b.smax || a.smax < b.smin) return 0;
      if (((a.tnum.value ^ b.tnum.value) & ~a.tnum.mask & ~b.tnum.mask) != 0) {
        return 0;
      }
      if (a.IsConst() && b.IsConst() && a.ConstVal() == b.ConstVal()) return 1;
      return -1;
    case Cmp::kNe: {
      const int d = Decide(Cmp::kEq, a, b);
      return d < 0 ? -1 : 1 - d;
    }
    case Cmp::kGtU:
      if (a.umin > b.umax) return 1;
      if (a.umax <= b.umin) return 0;
      return -1;
    case Cmp::kGeU:
      if (a.umin >= b.umax) return 1;
      if (a.umax < b.umin) return 0;
      return -1;
    case Cmp::kLtU: return Decide(Cmp::kGtU, b, a);
    case Cmp::kLeU: return Decide(Cmp::kGeU, b, a);
    case Cmp::kGtS:
      if (a.smin > b.smax) return 1;
      if (a.smax <= b.smin) return 0;
      return -1;
    case Cmp::kGeS:
      if (a.smin >= b.smax) return 1;
      if (a.smax < b.smin) return 0;
      return -1;
    case Cmp::kLtS: return Decide(Cmp::kGtS, b, a);
    case Cmp::kLeS: return Decide(Cmp::kGeS, b, a);
    case Cmp::kSet:
      if (b.IsConst()) {
        const uint64_t k = b.ConstVal();
        if ((a.tnum.value & k) != 0) return 1;
        if (((a.tnum.value | a.tnum.mask) & k) == 0) return 0;
      }
      return -1;
    case Cmp::kNset: {
      const int d = Decide(Cmp::kSet, a, b);
      return d < 0 ? -1 : 1 - d;
    }
  }
  return -1;
}

// Excludes the single value k from x's ranges where it sits on a boundary.
bool PinchNe(RegState& x, uint64_t k) {
  if (x.umin == k && x.umax == k) return false;
  if (x.umin == k) ++x.umin;
  else if (x.umax == k) --x.umax;
  const int64_t sk = static_cast<int64_t>(k);
  if (x.smin == sk && x.smax == sk) return false;
  if (x.smin == sk) ++x.smin;
  else if (x.smax == sk) --x.smax;
  return true;
}

// Assume `a <c> b` holds and tighten both operands. Returns false when the
// assumption is infeasible (that edge cannot be taken).
bool Narrow(Cmp c, RegState& a, RegState& b) {
  switch (c) {
    case Cmp::kLtU: return Narrow(Cmp::kGtU, b, a);
    case Cmp::kLeU: return Narrow(Cmp::kGeU, b, a);
    case Cmp::kLtS: return Narrow(Cmp::kGtS, b, a);
    case Cmp::kLeS: return Narrow(Cmp::kGeS, b, a);
    case Cmp::kGtU:
      if (b.umin == kU64Max || a.umax == 0) return false;
      a.umin = std::max(a.umin, b.umin + 1);
      b.umax = std::min(b.umax, a.umax - 1);
      break;
    case Cmp::kGeU:
      a.umin = std::max(a.umin, b.umin);
      b.umax = std::min(b.umax, a.umax);
      break;
    case Cmp::kGtS:
      if (b.smin == kS64Max || a.smax == kS64Min) return false;
      a.smin = std::max(a.smin, b.smin + 1);
      b.smax = std::min(b.smax, a.smax - 1);
      break;
    case Cmp::kGeS:
      a.smin = std::max(a.smin, b.smin);
      b.smax = std::min(b.smax, a.smax);
      break;
    case Cmp::kEq: {
      a.umin = b.umin = std::max(a.umin, b.umin);
      a.umax = b.umax = std::min(a.umax, b.umax);
      a.smin = b.smin = std::max(a.smin, b.smin);
      a.smax = b.smax = std::min(a.smax, b.smax);
      Tnum t;
      if (!TnumIntersect(a.tnum, b.tnum, &t)) return false;
      a.tnum = b.tnum = t;
      break;
    }
    case Cmp::kNe:
      if (b.IsConst()) {
        if (!PinchNe(a, b.ConstVal())) return false;
      } else if (a.IsConst()) {
        if (!PinchNe(b, a.ConstVal())) return false;
      }
      break;
    case Cmp::kSet:
      if (b.IsConst()) {
        const uint64_t k = b.ConstVal();
        if (k == 0) return false;
        if (((a.tnum.value | a.tnum.mask) & k) == 0) return false;
        if ((k & (k - 1)) == 0) {  // single bit: it must be set
          a.tnum.value |= k;
          a.tnum.mask &= ~k;
        }
      }
      break;
    case Cmp::kNset:
      if (b.IsConst()) {
        const uint64_t k = b.ConstVal();
        if ((a.tnum.value & k) != 0) return false;
        a.tnum.mask &= ~k;  // those bits are now known zero
      }
      break;
  }
  return SyncBounds(a) && SyncBounds(b);
}

// Cap on the diagnostics one report collects.
constexpr size_t kMaxDiagnostics = 64;

struct StateHeader {  // every field of an abstract state but its registers
  int64_t pkt_range = 0;  // bytes of packet proven accessible
  std::bitset<kStackSize> stack_init;
  size_t pc = 0;

  // Cost accumulators (stay zero while cost is not tracked): executed
  // source instructions and per-tier ns along the path that produced this
  // state, and the number of branch outcomes on it (see Verifier::path_).
  uint64_t cost_insns = 0;
  double cost_ns[kNumExecModes] = {};
  uint32_t path_len = 0;

  // Redundant-lookup lint: the most recent lookup on this path whose result
  // is still valid (same map + constant stack key, no intervening write).
  int32_t last_lookup_map = -1;
  int64_t last_lookup_key_off = 0;  // fp-relative
  uint32_t last_lookup_key_size = 0;
  int32_t last_lookup_pc = -1;
};

struct AbsState : StateHeader {
  std::array<RegState, kNumRegisters> regs;
};

// A pending branch, or a join point's entry that may subsume later
// arrivals. It keeps the registers in `kept`, in order, in a pool from
// `regs` on; the rest read as uninitialized, which is exact: `kept` holds
// every initialized register live at its pc, and r10 is never written.
struct Parked : StateHeader {
  uint32_t regs = 0;
  uint16_t kept = 0;
  bool done = false;  // join points: subtree fully explored (safe coverer)
  uint32_t next = 0;  // join points: the previous entry at the same pc
};

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

class Verifier {
 public:
  // `keep_going`: keep exploring sibling paths after a path fails so every
  // distinct error is collected, and keep the bookkeeping the warning
  // catalog reads (lint mode); otherwise stop at the first error. The walk
  // accumulates cost like the cost walk for as long as TryPrune finds it
  // would take the same path.
  Verifier(const Program& prog, ProgramContext context,
           const VerifierOptions& options, bool keep_going,
           const CostModel* cost_model, VerifyReport* report)
      : prog_(prog),
        context_(context),
        options_(options),
        keep_going_(keep_going),
        report_(report),
        cost_model_(cost_model) {}

  // Switches this instance into the post-acceptance cost walk: same
  // exploration semantics, but pruning additionally requires the coverer
  // to carry at-least-equal accumulated cost (so pruned continuations
  // cannot hide a more expensive path), and budget exhaustion degrades to
  // "unbounded" instead of a rejection.
  void EnableCostMode() { cost_mode_ = true; }

  // True when TakeCostFacts() is what a cost walk would find.
  bool cost_tracked() const { return track_cost_; }

  // Cost result. bounded stays false if the walk gave up (budget) or hit an
  // error (cannot happen for a program the gate walk accepted, but handled
  // defensively).
  CostFacts TakeCostFacts() {
    CostFacts facts;
    if (cost_gave_up_ || !report_->ok() || !cost_any_exit_) {
      return facts;
    }
    facts = cost_facts_;
    facts.bounded = true;
    facts.has_tail_call = has_tail_call_;
    // Replay the hottest path from the entry: its branch outcomes decide
    // every conditional jump, and its length ends it at its EXIT.
    facts.hottest_path.reserve(hottest_insns_);
    size_t branch = 0;
    for (size_t pc = 0; facts.hottest_path.size() < hottest_insns_;) {
      facts.hottest_path.push_back(static_cast<uint32_t>(pc));
      const Insn& insn = prog_.insns[pc];
      const bool jump =
          insn.op == Op::kJa ||
          (IsCondJumpOp(insn.op) && hottest_outcomes_[branch++] != 0);
      pc += 1 + (jump ? static_cast<size_t>(static_cast<int64_t>(insn.off))
                      : 0);
    }
    return facts;
  }

  void Run() {
    const size_t n = prog_.insns.size();
    if (n == 0) {
      AddDiagnostic(DiagSeverity::kError, 0, "empty program");
      return;
    }
    if (!StaticChecks()) {
      return;  // dataflow needs structurally valid jumps and registers
    }
    ComputeLiveness();
    ComputePrunePoints();
    visited_pc_.assign(n, 0);
    edges_.assign(n, 0);
    prune_lists_.assign(n, PruneList{});

    AbsState st;
    if (context_ == ProgramContext::kPacket) {
      st.regs[1] = RegState::Pointer(RegKind::kPktPtr);
      st.regs[2] = RegState::Pointer(RegKind::kPktEnd);
    } else {
      st.regs[1] = RegState::UnknownScalar();
      st.regs[2] = RegState::UnknownScalar();
    }
    st.regs[kFrameRegister] = RegState::Pointer(RegKind::kStackPtr);

    do {  // depth-first: resume the most recently parked branch
      // Every stored state whose watermark lies above the stack again has a
      // fully explored subtree: it is now safe to prune against.
      while (!undone_.empty() &&
             pending_.size() < undone_.back().watermark) {
        stored_[undone_.back().index].done = true;
        undone_.pop_back();
      }
      while (true) {
        if (options_.prune && st.pc < n && prune_point_[st.pc] != 0 &&
            TryPrune(st)) {
          ++report_->stats.pruned_states;
          break;
        }
        if (++report_->stats.visited_insns > options_.max_visited_insns) {
          if (cost_mode_) {
            // The gate walk accepted within budget; the weaker cost-mode
            // pruning just could not. Degrade to an unbounded cost verdict.
            cost_gave_up_ = true;
            return;
          }
          Fatal(st.pc,
                "program too complex: exploration budget exceeded "
                "(unbounded loop?)");
          return;
        }
        if (st.pc >= n) {
          Fail(st.pc, "execution falls off the end of the program");
          if (stop_) return;
          break;
        }
        visited_pc_[st.pc] = 1;
        const Op op = prog_.insns[st.pc].op;
        if (track_cost_) {
          AddCost(st);  // before StepInsn so branch copies inherit it
        }
        Step step;
        if (!StepInsn(st, step).ok()) {
          if (stop_) return;
          break;  // keep_going: abandon this path, siblings still explored
        }
        if (step.done) {
          // EXIT reached (step.done from a contradictory branch is an
          // abandoned infeasible path, not a completed execution).
          if (track_cost_ && op == Op::kExit) {
            RecordExitCost(st);
          }
          break;
        }
        if (track_cost_ && IsCondJumpOp(op)) {
          PushBranch(st, step.next_pc != st.pc + 1);
        }
        st.pc = step.next_pc;
      }
    } while (Resume(st));

    if (report_->ok() && !cost_mode_) {
      if (keep_going_) {
        EmitWarnings();
      }
      report_->facts.visited = std::move(visited_pc_);
      report_->facts.edges = std::move(edges_);
      report_->facts.pure = pure_;
      report_->facts.read_maps.assign(read_maps_.begin(), read_maps_.end());
      report_->facts.write_maps.assign(write_maps_.begin(), write_maps_.end());
      report_->facts.atomic_maps.assign(atomic_maps_.begin(),
                                        atomic_maps_.end());
      for (const auto& [pc, reason] : impurities_) {
        report_->facts.impurities.push_back(
            Impurity{static_cast<uint32_t>(pc), reason});
      }
    }
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Step {
    size_t next_pc = 0;
    bool done = false;
  };

  // The entries stored at one join point, linked through Parked::next.
  struct PruneList {
    uint32_t head = kNone;
    uint32_t size = 0;
  };
  struct UndoneRef {
    uint32_t index = 0;     // into stored_
    size_t watermark = 0;  // pending-stack depth at store time
  };

  // --- parked states -----------------------------------------------------

  // Appends `st`, taken to be at `pc`, to `parked`, its kept registers to
  // `pool` (see Parked).
  void Park(const AbsState& st, size_t pc, std::vector<Parked>& parked,
            std::vector<RegState>& pool) {
    Parked& p = parked.emplace_back();
    static_cast<StateHeader&>(p) = st;
    p.pc = pc;
    p.regs = static_cast<uint32_t>(pool.size());
    const unsigned live = pc < live_.size() ? live_[pc] : 0;
    for (int r = 0; r < kFrameRegister; ++r) {
      if (((live >> r) & 1) != 0 && st.regs[r].kind != RegKind::kNotInit) {
        p.kept |= static_cast<uint16_t>(1u << r);
        pool.push_back(st.regs[r]);
      }
    }
  }

  // Pops the most recently parked branch into `st`; false when none is
  // left.
  bool Resume(AbsState& st) {
    if (pending_.empty()) {
      return false;
    }
    const Parked& p = pending_.back();
    static_cast<StateHeader&>(st) = p;
    const RegState* reg = pending_regs_.data() + p.regs;
    for (int r = 0; r < kFrameRegister; ++r) {
      st.regs[r] = ((p.kept >> r) & 1) != 0 ? *reg++ : RegState{};
    }
    pending_regs_.resize(p.regs);
    pending_.pop_back();
    if (track_cost_) {
      path_.resize(st.path_len);
      hottest_shared_ = std::min<size_t>(hottest_shared_, st.path_len);
      PushBranch(st, /*taken=*/true);  // Fork parks taken edges only
    }
    return true;
  }

  // Parks `st` as the taken edge of a fork at `taken_pc`; the caller
  // continues down the fall-through edge. A full pending stack ends the
  // walk: the gate walk rejects, a cost walk gives up.
  Status Fork(const AbsState& st, size_t pc, size_t taken_pc) {
    ++report_->stats.branch_states;
    if (pending_.size() >= options_.max_pending_states) {
      if (cost_mode_) {
        cost_gave_up_ = true;
        stop_ = true;
        return ResourceExhaustedError("verifier: cost walk gave up");
      }
      return Fatal(pc, "too many pending branch states");
    }
    Park(st, taken_pc, pending_, pending_regs_);
    return OkStatus();
  }

  // --- diagnostics -------------------------------------------------------

  void AddDiagnostic(DiagSeverity severity, size_t pc,
                     const std::string& message) {
    if (!seen_.insert({pc, message}).second) {
      return;
    }
    if (report_->diagnostics.size() >= kMaxDiagnostics) {
      stop_ = true;
      return;
    }
    Diagnostic d;
    d.severity = severity;
    d.pc = pc;
    if (pc < prog_.insns.size()) {
      d.insn = Disassemble(prog_.insns[pc]);
    }
    d.message = message;
    report_->diagnostics.push_back(std::move(d));
  }

  // Path-level error: in keep_going mode only this path is abandoned.
  Status Fail(size_t pc, const std::string& why) {
    AddDiagnostic(DiagSeverity::kError, pc, why);
    if (!keep_going_) {
      stop_ = true;
    }
    return InvalidArgumentError("verifier: " + why);
  }

  // Run-level error: whole-program properties; exploring further paths
  // cannot produce useful additional findings.
  Status Fatal(size_t pc, const std::string& why) {
    AddDiagnostic(DiagSeverity::kError, pc, why);
    stop_ = true;
    return InvalidArgumentError("verifier: " + why);
  }

  // --- static structure --------------------------------------------------

  // Structural checks that need no dataflow. All violations are collected
  // in keep_going mode, but any of them blocks abstract interpretation.
  bool StaticChecks() {
    bool ok = true;
    for (size_t pc = 0; pc < prog_.insns.size(); ++pc) {
      const Insn& insn = prog_.insns[pc];
      if (insn.dst >= kNumRegisters || insn.src >= kNumRegisters) {
        Fail(pc, "register number out of range");
        ok = false;
      }
      if (insn.op == Op::kInvalid) {
        Fail(pc, "invalid opcode");
        ok = false;
      }
      if (IsJumpOp(insn.op)) {
        const int64_t target =
            static_cast<int64_t>(pc) + 1 + static_cast<int64_t>(insn.off);
        if (target < 0 ||
            target >= static_cast<int64_t>(prog_.insns.size())) {
          Fail(pc, "jump target out of program bounds");
          ok = false;
        }
      }
      if (insn.op == Op::kLdMapFd) {
        if (insn.imm < 0 ||
            static_cast<size_t>(insn.imm) >= prog_.maps.size()) {
          Fail(pc, "ldmapfd references unknown map");
          ok = false;
        }
      }
      const bool writes_dst =
          IsAluOp(insn.op) || IsLoadOp(insn.op) || insn.op == Op::kLdMapFd;
      if (writes_dst && insn.dst == kFrameRegister) {
        Fail(pc, "write to frame pointer r10");
        ok = false;
      }
      if (!ok && stop_) {
        return false;
      }
    }
    return ok;
  }

  // Per-insn register use/def masks for the liveness dataflow.
  static void UseDef(const Insn& insn, uint16_t* use, uint16_t* def) {
    *use = 0;
    *def = 0;
    const uint16_t dst_bit = uint16_t{1} << insn.dst;
    const uint16_t src_bit = uint16_t{1} << insn.src;
    if (IsAluOp(insn.op)) {
      switch (insn.op) {
        case Op::kMovImm:
        case Op::kMov32Imm:
          break;
        case Op::kMovReg:
        case Op::kMov32Reg:
          *use = src_bit;
          break;
        default:
          *use = dst_bit;
          if (UsesSrcReg(insn.op)) *use |= src_bit;
          break;
      }
      *def = dst_bit;
      return;
    }
    if (IsLoadOp(insn.op)) {
      *use = src_bit;
      *def = dst_bit;
      return;
    }
    if (IsStoreOp(insn.op)) {
      *use = dst_bit;
      if (UsesSrcReg(insn.op)) *use |= src_bit;
      return;
    }
    if (IsCondJumpOp(insn.op)) {
      *use = dst_bit;
      if (UsesSrcReg(insn.op)) *use |= src_bit;
      return;
    }
    switch (insn.op) {
      case Op::kLdMapFd:
        *def = dst_bit;
        break;
      case Op::kCall:
        *use = 0b0000000111110;  // r1..r5 (conservative: any helper arity)
        *def = 0b0000000111111;  // r0..r5 clobbered
        break;
      case Op::kExit:
        *use = 0b1;  // r0
        break;
      default:
        break;
    }
  }

  // Backward may-live dataflow over the static CFG. Comparing only live
  // registers at prune points is what lets states with divergent dead
  // loop counters or clobbered temporaries subsume each other.
  void ComputeLiveness() {
    const size_t n = prog_.insns.size();
    live_.assign(n, 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = n; i-- > 0;) {
        const Insn& insn = prog_.insns[i];
        uint16_t out = 0;
        if (insn.op == Op::kExit) {
          // no successors
        } else if (insn.op == Op::kJa) {
          const size_t t = i + 1 + static_cast<size_t>(
                                       static_cast<int64_t>(insn.off));
          if (t < n) out = live_[t];
        } else if (IsCondJumpOp(insn.op)) {
          const size_t t = i + 1 + static_cast<size_t>(
                                       static_cast<int64_t>(insn.off));
          if (i + 1 < n) out |= live_[i + 1];
          if (t < n) out |= live_[t];
        } else if (i + 1 < n) {
          out = live_[i + 1];
        }
        uint16_t use = 0;
        uint16_t def = 0;
        UseDef(insn, &use, &def);
        uint16_t in = use | (out & static_cast<uint16_t>(~def));
        in |= uint16_t{1} << kFrameRegister;
        if (in != live_[i]) {
          live_[i] = in;
          changed = true;
        }
      }
    }
  }

  // Join points of the CFG: every jump target. These are where distinct
  // paths reconverge, so where subsumption has a chance to fire.
  void ComputePrunePoints() {
    const size_t n = prog_.insns.size();
    prune_point_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (IsJumpOp(prog_.insns[i].op)) {
        const size_t t = i + 1 + static_cast<size_t>(
                                     static_cast<int64_t>(prog_.insns[i].off));
        if (t < n) prune_point_[t] = 1;
      }
    }
  }

  // --- subsumption -------------------------------------------------------

  static bool RegCovers(const RegState& o, const RegState& n) {
    if (o.kind == RegKind::kNotInit) {
      return true;  // the old path never relied on this register
    }
    if (o.kind != n.kind) {
      return false;
    }
    switch (o.kind) {
      case RegKind::kScalar:
        return o.umin <= n.umin && o.umax >= n.umax && o.smin <= n.smin &&
               o.smax >= n.smax && TnumIn(o.tnum, n.tnum);
      case RegKind::kPktPtr:
      case RegKind::kStackPtr:
        return o.off_min <= n.off_min && o.off_max >= n.off_max;
      case RegKind::kMapValue:
        return o.map_index == n.map_index && o.off_min <= n.off_min &&
               o.off_max >= n.off_max;
      case RegKind::kMapValueOrNull:
        // origin_pc must match so the NULL-check bookkeeping of the pruned
        // path is not silently attributed to a different lookup site.
        return o.map_index == n.map_index && o.origin_pc == n.origin_pc &&
               o.off_min <= n.off_min && o.off_max >= n.off_max;
      case RegKind::kConstMapPtr:
        return o.map_index == n.map_index;
      case RegKind::kPktEnd:
      case RegKind::kNullConst:
        return true;
      case RegKind::kNotInit:
        return true;
    }
    return false;
  }

  // True iff everything verified from `o` onward also holds from `n`:
  // `o` makes weaker-or-equal assumptions in every component `n`'s
  // continuation can observe. Of the registers live here, `o` keeps the
  // initialized ones; an uninitialized one covers anything, and r10 is the
  // same in every state.
  bool Covers(const Parked& o, const AbsState& n) const {
    if (o.pkt_range > n.pkt_range) {
      return false;
    }
    if ((o.stack_init & ~n.stack_init).any()) {
      return false;
    }
    const RegState* reg = stored_regs_.data() + o.regs;
    for (unsigned kept = o.kept; kept != 0; kept &= kept - 1) {
      if (!RegCovers(*reg++, n.regs[std::countr_zero(kept)])) {
        return false;
      }
    }
    return true;
  }

  // The coverer reached this join point at least as expensively in every
  // component, so the paths explored from it bound the pruned state's
  // full-path worst case from above.
  static bool CostDominates(const Parked& o, const AbsState& n) {
    if (o.cost_insns < n.cost_insns) {
      return false;
    }
    for (size_t t = 0; t < kNumExecModes; ++t) {
      if (o.cost_ns[t] < n.cost_ns[t]) {
        return false;
      }
    }
    return true;
  }

  // Prune if a fully-explored state at this pc covers `st`; otherwise
  // remember `st` so it can cover later arrivals. Only `done` states are
  // candidates: pruning against an ancestor still being explored would
  // certify unexplored (possibly non-terminating) continuations. The cost
  // walk also needs the coverer to cost-dominate. The gate walk prunes on
  // any coverer, and its first prune without a dominating one ends its
  // cost tracking: from there the cost walk would explore more.
  bool TryPrune(const AbsState& st) {
    PruneList& list = prune_lists_[st.pc];
    bool covered = false;
    for (uint32_t i = list.head; i != kNone; i = stored_[i].next) {
      const Parked& s = stored_[i];
      if (s.done && Covers(s, st)) {
        if (!track_cost_ || CostDominates(s, st)) {
          return true;
        }
        covered = true;
      }
    }
    if (covered && !cost_mode_) {
      track_cost_ = false;
      return true;
    }
    if (list.size < options_.max_states_per_prune_point) {
      Park(st, st.pc, stored_, stored_regs_);
      stored_.back().next = list.head;
      list.head = static_cast<uint32_t>(stored_.size() - 1);
      ++list.size;
      undone_.push_back(UndoneRef{list.head, pending_.size()});
    }
    return false;
  }

  // --- cost ----------------------------------------------------------------

  // Charges insns[st.pc] to the path's accumulators.
  // Runs before StepInsn so the helper-argument registers (map kind
  // for call pricing) are still live and branch copies inherit the cost.
  void AddCost(AbsState& st) {
    const Insn& insn = prog_.insns[st.pc];
    st.cost_insns += 1;
    if (insn.op != Op::kCall) {  // InsnNs without a helper body
      for (size_t t = 0; t < kNumExecModes; ++t) {
        st.cost_ns[t] += cost_model_->op_ns[t][static_cast<size_t>(insn.op)];
      }
      return;
    }
    MapType map_type = MapType::kArray;
    uint32_t batch_count = 1;
    const auto helper = static_cast<HelperId>(insn.imm);
    if (helper == HelperId::kMapLookupElem ||
        helper == HelperId::kMapUpdateElem ||
        helper == HelperId::kMapDeleteElem ||
        helper == HelperId::kMapLookupBatch) {
      const RegState& r1 = st.regs[1];
      if (r1.kind == RegKind::kConstMapPtr && r1.map_index >= 0 &&
          static_cast<size_t>(r1.map_index) < prog_.maps.size()) {
        map_type = prog_.maps[r1.map_index]->spec().type;
      }
    }
    if (helper == HelperId::kMapLookupBatch) {
      // ApplyCall (later this step) rejects non-constant counts; price
      // the worst case if the program is about to fail anyway.
      const RegState& r4 = st.regs[4];
      batch_count = r4.IsConst() && r4.ConstVal() <= Map::kMaxLookupBatch
                        ? static_cast<uint32_t>(r4.ConstVal())
                        : Map::kMaxLookupBatch;
    }
    for (size_t t = 0; t < kNumExecModes; ++t) {
      st.cost_ns[t] += cost_model_->InsnNs(insn, map_type,
                                           static_cast<ExecMode>(t),
                                           batch_count);
    }
  }

  // Folds a completed path (EXIT validated) into the per-tier maxima and
  // minima; the hottest path is the native-tier maximum, ties broken
  // toward more instructions.
  void RecordExitCost(const AbsState& st) {
    double total_ns[kNumExecModes];
    for (size_t t = 0; t < kNumExecModes; ++t) {
      total_ns[t] = st.cost_ns[t] + cost_model_->exec_overhead_ns[t];
    }
    if (!cost_any_exit_) {
      cost_any_exit_ = true;
      cost_facts_.wcet_insns = cost_facts_.best_insns = st.cost_insns;
      for (size_t t = 0; t < kNumExecModes; ++t) {
        cost_facts_.wcet_ns[t] = cost_facts_.best_ns[t] = total_ns[t];
      }
      hottest_native_ns_ = total_ns[static_cast<size_t>(ExecMode::kNative)];
      hottest_insns_ = st.cost_insns;
      KeepHottestPath();
      return;
    }
    cost_facts_.wcet_insns = std::max(cost_facts_.wcet_insns, st.cost_insns);
    cost_facts_.best_insns = std::min(cost_facts_.best_insns, st.cost_insns);
    for (size_t t = 0; t < kNumExecModes; ++t) {
      cost_facts_.wcet_ns[t] = std::max(cost_facts_.wcet_ns[t], total_ns[t]);
      cost_facts_.best_ns[t] = std::min(cost_facts_.best_ns[t], total_ns[t]);
    }
    const double native = total_ns[static_cast<size_t>(ExecMode::kNative)];
    if (native > hottest_native_ns_ ||
        (native == hottest_native_ns_ && st.cost_insns > hottest_insns_)) {
      hottest_native_ns_ = native;
      hottest_insns_ = st.cost_insns;
      KeepHottestPath();
    }
  }

  void PushBranch(AbsState& st, bool taken) {
    path_.push_back(taken ? 1 : 0);
    st.path_len = static_cast<uint32_t>(path_.size());
  }

  // Copies the path that just reached EXIT. Only what changed since the
  // last copy is copied, so each branch outcome is copied at most once.
  void KeepHottestPath() {
    hottest_outcomes_.resize(hottest_shared_);
    hottest_outcomes_.insert(
        hottest_outcomes_.end(),
        path_.begin() + static_cast<long>(hottest_shared_), path_.end());
    hottest_shared_ = path_.size();
  }

  // --- memory ------------------------------------------------------------

  // Stack-traffic bookkeeping for the written-but-never-read warning (lint
  // mode only).
  void NoteStackRead(size_t first, size_t last) {
    if (!keep_going_) return;
    for (size_t i = first; i < last && i < kStackSize; ++i) {
      stack_read_.set(i);
    }
  }

  void NoteStackWrite(size_t pc, size_t first, size_t last) {
    if (!keep_going_) return;
    auto [it, inserted] = stack_writes_.try_emplace(pc, first, last);
    if (!inserted) {
      it->second.first = std::min(it->second.first, first);
      it->second.second = std::max(it->second.second, last);
    }
  }

  // Clears purity. The first reason recorded per pc wins (a pc is impure
  // for one reason only).
  void NoteImpurity(size_t pc, const char* reason) {
    pure_ = false;
    impurities_.try_emplace(pc, reason);
  }

  // Validates a memory access through `ptr` whose offset may span
  // [off_min, off_max]: every offset in the interval must be in bounds.
  // For stack reads also checks initialization; stack writes at a constant
  // offset mark bytes initialized (variable-offset writes conservatively
  // do not, since which bytes they define is unknown).
  Status CheckMemAccess(AbsState& st, size_t pc, const RegState& ptr,
                        int16_t insn_off, int size, bool is_write,
                        bool is_atomic = false) {
    const int64_t lo = ptr.off_min + insn_off;
    const int64_t hi = ptr.off_max + insn_off;
    switch (ptr.kind) {
      case RegKind::kPktPtr: {
        if (is_write) {
          return Fail(pc, "packet memory is read-only at Syrup hooks");
        }
        if (lo < 0 || hi + size > st.pkt_range) {
          return Fail(pc,
                      "packet access [" + std::to_string(lo) + ", " +
                          std::to_string(hi + size) +
                          ") outside verified range " +
                          std::to_string(st.pkt_range) +
                          " (missing bounds check against pkt_end?)");
        }
        return OkStatus();
      }
      case RegKind::kStackPtr: {
        if (lo < -kStackSize || hi + size > 0) {
          return Fail(pc, "stack access out of bounds at fp" +
                              std::to_string(lo));
        }
        const size_t first = static_cast<size_t>(lo + kStackSize);
        const size_t last =
            static_cast<size_t>(hi + kStackSize) + static_cast<size_t>(size);
        if (is_write) {
          if (lo == hi) {
            for (size_t i = first; i < last; ++i) {
              st.stack_init.set(i);
            }
          }
          NoteStackWrite(pc, first, last);
          if (is_atomic) {
            NoteStackRead(first, last);  // read-modify-write
          }
          // A store over the tracked lookup key ends its redundancy window.
          if (st.last_lookup_map >= 0) {
            const size_t key_first =
                static_cast<size_t>(st.last_lookup_key_off + kStackSize);
            const size_t key_last = key_first + st.last_lookup_key_size;
            if (first < key_last && key_first < last) {
              st.last_lookup_map = -1;
            }
          }
        } else {
          for (size_t i = first; i < last; ++i) {
            if (!st.stack_init.test(i)) {
              return Fail(pc, "read of uninitialized stack at fp" +
                                  std::to_string(static_cast<int64_t>(i) -
                                                 kStackSize));
            }
          }
          NoteStackRead(first, last);
        }
        return OkStatus();
      }
      case RegKind::kMapValue: {
        const auto& spec = prog_.maps[ptr.map_index]->spec();
        if (lo < 0 || hi + size > static_cast<int64_t>(spec.value_size)) {
          return Fail(pc, "map value access out of bounds");
        }
        if (is_write) {
          // In-place map mutation (stores or atomics through the value
          // pointer) changes observable state, so no memo may skip it.
          write_maps_.insert(ptr.map_index);
          if (is_atomic) {
            atomic_maps_.insert(ptr.map_index);
          }
          NoteImpurity(
              pc, is_atomic
                      ? "atomic add through a map value pointer (in-place "
                        "map write)"
                      : "store through a map value pointer (in-place map "
                        "write)");
          st.last_lookup_map = -1;  // map contents may have changed
        }
        return OkStatus();
      }
      case RegKind::kMapValueOrNull:
        return Fail(pc, "map value dereference without NULL check");
      case RegKind::kNullConst:
        return Fail(pc, "NULL pointer dereference");
      default:
        return Fail(pc, std::string("cannot access memory through ") +
                            KindName(ptr.kind));
    }
  }

  Status CheckHelperKeyArg(AbsState& st, size_t pc, int reg, uint32_t bytes) {
    const RegState& r = st.regs[reg];
    if (r.kind == RegKind::kStackPtr) {
      const int64_t lo = r.off_min;
      const int64_t hi = r.off_max;
      if (lo < -kStackSize || hi + static_cast<int64_t>(bytes) > 0) {
        return Fail(pc, "helper argument points outside the stack");
      }
      const size_t first = static_cast<size_t>(lo + kStackSize);
      const size_t last = static_cast<size_t>(hi + kStackSize) + bytes;
      for (size_t i = first; i < last; ++i) {
        if (!st.stack_init.test(i)) {
          return Fail(pc, "helper argument reads uninitialized stack");
        }
      }
      NoteStackRead(first, last);
      return OkStatus();
    }
    if (r.kind == RegKind::kMapValue) {
      const auto& spec = prog_.maps[r.map_index]->spec();
      if (r.off_min < 0 ||
          r.off_max + static_cast<int64_t>(bytes) >
              static_cast<int64_t>(spec.value_size)) {
        return Fail(pc, "helper argument out of map value bounds");
      }
      return OkStatus();
    }
    return Fail(pc, std::string("helper argument must be a stack or map "
                                "value pointer, found ") +
                        KindName(r.kind));
  }

  // --- instruction semantics ---------------------------------------------

  Status ApplyAlu(AbsState& st, size_t pc, const Insn& insn) {
    RegState& dst = st.regs[insn.dst];
    const Op op = insn.op;

    // MOV overwrites dst, so dst need not be initialized.
    if (op == Op::kMovReg) {
      SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.src));
      dst = st.regs[insn.src];
      return OkStatus();
    }
    if (op == Op::kMovImm) {
      dst = RegState::Known(static_cast<uint64_t>(insn.imm));
      return OkStatus();
    }
    if (op == Op::kMov32Reg) {
      SYRUP_RETURN_IF_ERROR(RequireScalar(st, pc, insn.src));
      dst = Truncate32(st.regs[insn.src]);
      return OkStatus();
    }
    if (op == Op::kMov32Imm) {
      dst = RegState::Known(static_cast<uint32_t>(insn.imm));
      return OkStatus();
    }

    SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.dst));

    // Pointer arithmetic: add/sub with a bounded scalar shifts the offset
    // interval; everything else would launder the pointer.
    if (IsPointerKind(dst.kind)) {
      auto adjustable = [](RegKind kind) {
        return kind == RegKind::kPktPtr || kind == RegKind::kStackPtr ||
               kind == RegKind::kMapValue;
      };
      auto offset_ok = [](const RegState& r) {
        return r.off_min >= -kMaxPtrOff && r.off_max <= kMaxPtrOff;
      };
      if (op == Op::kAddImm || op == Op::kSubImm) {
        if (!adjustable(dst.kind)) {
          return Fail(pc, std::string("arithmetic on ") + KindName(dst.kind));
        }
        const int64_t d = op == Op::kAddImm ? insn.imm : -insn.imm;
        dst.off_min += d;
        dst.off_max += d;
        if (!offset_ok(dst)) {
          return Fail(pc, "pointer offset out of range");
        }
        return OkStatus();
      }
      if (op == Op::kAddReg || op == Op::kSubReg) {
        SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.src));
        const RegState& src = st.regs[insn.src];
        // ptr - ptr within the packet family yields an (unknown) length.
        if (op == Op::kSubReg &&
            (dst.kind == RegKind::kPktPtr || dst.kind == RegKind::kPktEnd) &&
            (src.kind == RegKind::kPktPtr || src.kind == RegKind::kPktEnd)) {
          dst = RegState::UnknownScalar();
          return OkStatus();
        }
        if (src.kind == RegKind::kScalar && adjustable(dst.kind)) {
          if (src.smin < -kMaxPtrDelta || src.smax > kMaxPtrDelta) {
            return Fail(pc,
                        "pointer arithmetic with unbounded scalar (add a "
                        "range check before offsetting)");
          }
          if (op == Op::kAddReg) {
            dst.off_min += src.smin;
            dst.off_max += src.smax;
          } else {
            dst.off_min -= src.smax;
            dst.off_max -= src.smin;
          }
          if (!offset_ok(dst)) {
            return Fail(pc, "pointer offset out of range");
          }
          return OkStatus();
        }
        return Fail(pc, "pointer arithmetic with unknown or non-scalar "
                        "operand");
      }
      return Fail(pc, std::string("ALU op on pointer ") + KindName(dst.kind));
    }

    // Scalar ALU. A register source must itself be a scalar; "scalar + pkt
    // pointer" style commuted forms are not needed by our policies.
    if (op == Op::kNeg) {
      dst = dst.IsConst() ? RegState::Known(~dst.ConstVal() + 1)
                          : RegState::UnknownScalar();
      return OkStatus();
    }
    if (op == Op::kBe16) {
      dst = RegState::Range(0, 0xffff);
      return OkStatus();
    }
    if (op == Op::kBe32) {
      dst = RegState::Range(0, kU32Max);
      return OkStatus();
    }
    if (op == Op::kBe64) {
      dst = RegState::UnknownScalar();
      return OkStatus();
    }
    RegState rhs;
    if (UsesSrcReg(op)) {
      SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.src));
      const RegState& src = st.regs[insn.src];
      if (src.kind != RegKind::kScalar) {
        return Fail(pc, std::string("scalar ALU with pointer source ") +
                            KindName(src.kind));
      }
      rhs = src;
    } else {
      rhs = RegState::Known(static_cast<uint64_t>(insn.imm));
    }
    AluKind kind;
    if (!AluKindOf(op, &kind)) {
      return Fail(pc, "unhandled ALU op");
    }
    dst = AluApply(kind, dst, rhs);
    return OkStatus();
  }

  void MarkEdge(size_t pc, uint8_t bits) {
    if (pc < edges_.size()) {
      edges_[pc] |= bits;
    }
  }

  Status ApplyCondJump(AbsState& st, size_t pc, const Insn& insn,
                       Step& step) {
    SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.dst));
    if (UsesSrcReg(insn.op)) {
      SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.src));
    }
    RegState& a = st.regs[insn.dst];
    const size_t taken_pc = pc + 1 + static_cast<size_t>(
                                         static_cast<int64_t>(insn.off));
    const size_t fall_pc = pc + 1;
    const bool src_is_imm = !UsesSrcReg(insn.op);
    RegState* b = src_is_imm ? nullptr : &st.regs[insn.src];

    // NULL-check refinement for map lookups: `if (ptr ==/!= 0)`.
    const bool null_test =
        (insn.op == Op::kJeqImm || insn.op == Op::kJneImm) && insn.imm == 0 &&
        a.kind == RegKind::kMapValueOrNull;
    if (null_test) {
      if (keep_going_ && a.origin_pc >= 0) {
        lookup_checked_.insert(static_cast<size_t>(a.origin_pc));
      }
      const bool eq = insn.op == Op::kJeqImm;
      MarkEdge(pc, AnalysisFacts::kEdgeFall | AnalysisFacts::kEdgeTaken);
      // Park the taken edge, then go down the fall-through edge.
      a.kind = eq ? RegKind::kNullConst : RegKind::kMapValue;
      SYRUP_RETURN_IF_ERROR(Fork(st, pc, taken_pc));
      a.kind = eq ? RegKind::kMapValue : RegKind::kNullConst;
      step.next_pc = fall_pc;
      return OkStatus();
    }

    // Scalar comparison: decide statically if the ranges allow, otherwise
    // fork and narrow each side under its edge's condition.
    if (a.kind == RegKind::kScalar &&
        (src_is_imm || b->kind == RegKind::kScalar)) {
      const Cmp cmp = CmpOf(insn.op);
      const RegState imm_rhs =
          src_is_imm ? RegState::Known(static_cast<uint64_t>(insn.imm))
                     : RegState();
      const int decided = Decide(cmp, a, src_is_imm ? imm_rhs : *b);
      if (decided == 1) {
        MarkEdge(pc, AnalysisFacts::kEdgeTaken);
        step.next_pc = taken_pc;
        return OkStatus();
      }
      if (decided == 0) {
        MarkEdge(pc, AnalysisFacts::kEdgeFall);
        step.next_pc = fall_pc;
        return OkStatus();
      }
      // The taken edge narrows copies of the operands; `if r1 > r1` names
      // one register twice, so both copies are then one.
      RegState taken[2] = {a, src_is_imm ? imm_rhs : *b};
      RegState& ta = taken[0];
      RegState& tb = !src_is_imm && insn.src == insn.dst ? taken[0] : taken[1];
      RegState fall_rhs = imm_rhs;
      RegState* fb = src_is_imm ? &fall_rhs : b;
      const bool taken_ok = Narrow(cmp, ta, tb);
      const bool fall_ok = Narrow(Inverse(cmp), a, *fb);
      if (taken_ok && fall_ok) {
        MarkEdge(pc, AnalysisFacts::kEdgeFall | AnalysisFacts::kEdgeTaken);
        // Park the taken edge, then go down the fall-through edge.
        const RegState fall[2] = {a, st.regs[insn.src]};
        a = ta;
        if (!src_is_imm) *b = tb;
        SYRUP_RETURN_IF_ERROR(Fork(st, pc, taken_pc));
        a = fall[0];
        st.regs[insn.src] = fall[1];
        step.next_pc = fall_pc;
      } else if (taken_ok) {
        MarkEdge(pc, AnalysisFacts::kEdgeTaken);
        a = ta;
        if (!src_is_imm) *b = tb;
        step.next_pc = taken_pc;
      } else if (fall_ok) {
        MarkEdge(pc, AnalysisFacts::kEdgeFall);
        step.next_pc = fall_pc;
      } else {
        // Both edges contradict an already-infeasible state; nothing
        // concrete reaches here, so the path ends.
        step.done = true;
      }
      return OkStatus();
    }

    // Pointer comparisons. pkt vs pkt_end proves packet bytes accessible on
    // the right edge; other same-family comparisons fork unrefined.
    int64_t taken_range = st.pkt_range;
    if (!src_is_imm) {
      const RegState& d = a;
      const RegState& s = *b;
      auto refine = [](int64_t& range, int64_t n) {
        if (n > range) {
          range = n;
        }
      };
      if (d.kind == RegKind::kPktPtr && s.kind == RegKind::kPktEnd) {
        // The guard proves pkt + off <= pkt_end; off_min holds for every
        // concrete offset, so that many bytes are accessible.
        const int64_t n = d.off_min;
        switch (insn.op) {
          case Op::kJgtReg: case Op::kJgeReg: refine(st.pkt_range, n); break;
          case Op::kJltReg: case Op::kJleReg: refine(taken_range, n); break;
          default: break;
        }
      } else if (d.kind == RegKind::kPktEnd && s.kind == RegKind::kPktPtr) {
        const int64_t n = s.off_min;
        switch (insn.op) {
          case Op::kJgtReg: case Op::kJgeReg: refine(taken_range, n); break;
          case Op::kJltReg: case Op::kJleReg: refine(st.pkt_range, n); break;
          default: break;
        }
      } else {
        // Comparing pointers of the same kind (e.g. two pkt ptrs) is fine;
        // mixed pointer/scalar comparisons are rejected as in eBPF.
        const bool same_family = d.kind == s.kind ||
                                 (IsPointerKind(d.kind) &&
                                  IsPointerKind(s.kind));
        if (!same_family) {
          return Fail(pc, "comparison between pointer and scalar");
        }
      }
    } else if (IsPointerKind(a.kind)) {
      return Fail(pc, "comparison between pointer and immediate");
    }

    MarkEdge(pc, AnalysisFacts::kEdgeFall | AnalysisFacts::kEdgeTaken);
    // Park the taken edge, then go down the fall-through edge.
    const int64_t fall_range = st.pkt_range;
    st.pkt_range = taken_range;
    SYRUP_RETURN_IF_ERROR(Fork(st, pc, taken_pc));
    st.pkt_range = fall_range;
    step.next_pc = fall_pc;
    return OkStatus();
  }

  // Redundant-lookup lint bookkeeping (lint mode only): a mutation ends
  // any redundancy window, and so does a batched lookup (its out span may
  // cover the tracked key); a lookup with a constant stack key either flags
  // a repeat of the previous lookup or starts a new window.
  void TrackLookupWindow(AbsState& st, size_t pc, HelperId helper,
                         int32_t lookup_map) {
    if (helper != HelperId::kMapLookupElem) {
      if (helper == HelperId::kMapUpdateElem ||
          helper == HelperId::kMapDeleteElem ||
          helper == HelperId::kMapLookupBatch) {
        st.last_lookup_map = -1;
      }
      return;
    }
    const RegState& key = st.regs[2];
    const auto& spec = prog_.maps[lookup_map]->spec();
    if (key.kind != RegKind::kStackPtr || key.off_min != key.off_max) {
      st.last_lookup_map = -1;  // variable key: cannot track
      return;
    }
    if (st.last_lookup_map == lookup_map &&
        st.last_lookup_key_off == key.off_min &&
        st.last_lookup_key_size == spec.key_size && st.last_lookup_pc >= 0 &&
        static_cast<size_t>(st.last_lookup_pc) != pc) {
      redundant_lookups_.emplace(pc, static_cast<size_t>(st.last_lookup_pc));
    }
    st.last_lookup_map = lookup_map;
    st.last_lookup_key_off = key.off_min;
    st.last_lookup_key_size = spec.key_size;
    st.last_lookup_pc = static_cast<int32_t>(pc);
  }

  Status ApplyCall(AbsState& st, size_t pc, const Insn& insn) {
    const auto helper = static_cast<HelperId>(insn.imm);
    auto require_map_arg = [&](int reg, MapType* type_out) -> Status {
      const RegState& r = st.regs[reg];
      if (r.kind != RegKind::kConstMapPtr) {
        return Fail(pc, "helper expects a map reference in r" +
                            std::to_string(reg));
      }
      if (type_out != nullptr) {
        *type_out = prog_.maps[r.map_index]->spec().type;
      }
      return OkStatus();
    };

    int32_t lookup_map = -1;
    switch (helper) {
      case HelperId::kMapLookupElem: {
        SYRUP_RETURN_IF_ERROR(require_map_arg(1, nullptr));
        lookup_map = st.regs[1].map_index;
        const auto& spec = prog_.maps[lookup_map]->spec();
        SYRUP_RETURN_IF_ERROR(CheckHelperKeyArg(st, pc, 2, spec.key_size));
        read_maps_.insert(lookup_map);
        break;
      }
      case HelperId::kMapUpdateElem: {
        SYRUP_RETURN_IF_ERROR(require_map_arg(1, nullptr));
        const auto& spec = prog_.maps[st.regs[1].map_index]->spec();
        SYRUP_RETURN_IF_ERROR(CheckHelperKeyArg(st, pc, 2, spec.key_size));
        SYRUP_RETURN_IF_ERROR(CheckHelperKeyArg(st, pc, 3, spec.value_size));
        write_maps_.insert(st.regs[1].map_index);
        break;
      }
      case HelperId::kMapDeleteElem: {
        SYRUP_RETURN_IF_ERROR(require_map_arg(1, nullptr));
        const auto& spec = prog_.maps[st.regs[1].map_index]->spec();
        SYRUP_RETURN_IF_ERROR(CheckHelperKeyArg(st, pc, 2, spec.key_size));
        write_maps_.insert(st.regs[1].map_index);
        break;
      }
      case HelperId::kMapLookupBatch: {
        SYRUP_RETURN_IF_ERROR(require_map_arg(1, nullptr));
        lookup_map = st.regs[1].map_index;
        const auto& spec = prog_.maps[lookup_map]->spec();
        if (spec.value_size != sizeof(uint64_t)) {
          return Fail(pc, "map_lookup_batch requires a u64-value map "
                          "(value_size == 8); this map's value_size is " +
                              std::to_string(spec.value_size));
        }
        // r4 must be a compile-time-known batch size so the keys/out spans
        // below are constant-width (the whole point: the verifier proves
        // the copy-out region, so no per-element NULL checks survive to
        // runtime).
        const RegState& n_reg = st.regs[4];
        if (!n_reg.IsConst()) {
          return Fail(pc, "map_lookup_batch count (r4) must be a known "
                          "constant");
        }
        const uint64_t n = n_reg.ConstVal();
        if (n == 0 || n > Map::kMaxLookupBatch) {
          return Fail(pc, "map_lookup_batch count must be 1.." +
                              std::to_string(Map::kMaxLookupBatch) +
                              ", got " + std::to_string(n));
        }
        SYRUP_RETURN_IF_ERROR(CheckHelperKeyArg(
            st, pc, 2, static_cast<uint32_t>(n) * spec.key_size));
        // r3 is written by the helper: a stack pointer at a constant
        // offset, n*8 bytes in bounds. The span becomes initialized.
        const RegState& out = st.regs[3];
        if (out.kind != RegKind::kStackPtr || out.off_min != out.off_max) {
          return Fail(pc, "map_lookup_batch out (r3) must be a stack "
                          "pointer at a constant offset");
        }
        const int64_t out_bytes = static_cast<int64_t>(n) * 8;
        if (out.off_min < -kStackSize || out.off_min + out_bytes > 0) {
          return Fail(pc, "map_lookup_batch out span outside the stack");
        }
        const size_t first = static_cast<size_t>(out.off_min + kStackSize);
        const size_t last = first + static_cast<size_t>(out_bytes);
        for (size_t i = first; i < last; ++i) {
          st.stack_init.set(i);
        }
        NoteStackWrite(pc, first, last);
        read_maps_.insert(lookup_map);
        break;
      }
      case HelperId::kGetPrandomU32:
      case HelperId::kKtimeGetNs:
        break;
      case HelperId::kTailCall: {
        MapType type;
        SYRUP_RETURN_IF_ERROR(require_map_arg(2, &type));
        if (type != MapType::kProgArray) {
          return Fail(pc, "tail_call requires a prog_array map");
        }
        SYRUP_RETURN_IF_ERROR(RequireScalar(st, pc, 3));
        break;
      }
      default:
        return Fail(pc, "unknown helper " + std::to_string(insn.imm));
    }

    // Purity: map mutations have side effects; randomness and the clock
    // make the decision depend on more than (packet bytes, map contents);
    // a tail call's target program is outside this analysis.
    switch (helper) {
      case HelperId::kMapLookupElem:
      case HelperId::kMapLookupBatch:  // pure read, like a single lookup
        break;
      case HelperId::kMapUpdateElem:
        NoteImpurity(pc, "map_update_elem (map write)");
        break;
      case HelperId::kMapDeleteElem:
        NoteImpurity(pc, "map_delete_elem (map write)");
        break;
      case HelperId::kGetPrandomU32:
        NoteImpurity(pc, "get_prandom_u32 (nondeterministic result)");
        break;
      case HelperId::kKtimeGetNs:
        NoteImpurity(pc, "ktime_get_ns (time-dependent result)");
        break;
      case HelperId::kTailCall:
        has_tail_call_ = true;
        NoteImpurity(pc, "tail_call (target program outside this "
                         "analysis)");
        break;
    }

    if (keep_going_) {
      TrackLookupWindow(st, pc, helper, lookup_map);
    }

    // r0 holds the result; argument registers are clobbered.
    if (helper == HelperId::kMapLookupElem) {
      st.regs[0] = RegState::Pointer(RegKind::kMapValueOrNull, lookup_map);
      st.regs[0].origin_pc = static_cast<int32_t>(pc);
      if (keep_going_) {
        lookup_sites_.insert(pc);
      }
    } else if (helper == HelperId::kMapLookupBatch) {
      // Hit bitmap: bit i set iff keys[i] was present; n was proven
      // constant above, so the range is exact.
      const uint64_t n = st.regs[4].ConstVal();
      st.regs[0] = RegState::Range(
          0, n >= 64 ? kU64Max : (uint64_t{1} << n) - 1);
    } else if (helper == HelperId::kGetPrandomU32) {
      st.regs[0] = RegState::Range(0, kU32Max);
    } else {
      st.regs[0] = RegState::UnknownScalar();
    }
    for (int reg = 1; reg <= 5; ++reg) {
      st.regs[reg] = RegState{};
    }
    return OkStatus();
  }

  Status RequireInit(const AbsState& st, size_t pc, int reg) {
    if (st.regs[reg].kind == RegKind::kNotInit) {
      return Fail(pc, "read of uninitialized register r" + std::to_string(reg));
    }
    return OkStatus();
  }

  Status RequireScalar(const AbsState& st, size_t pc, int reg) {
    SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, reg));
    if (st.regs[reg].kind != RegKind::kScalar) {
      return Fail(pc, std::string("expected scalar in r") +
                          std::to_string(reg) + ", found " +
                          KindName(st.regs[reg].kind));
    }
    return OkStatus();
  }

  Status StepInsn(AbsState& st, Step& step) {
    const size_t pc = st.pc;
    const Insn& insn = prog_.insns[pc];
    step.next_pc = pc + 1;

    if (IsAluOp(insn.op)) {
      return ApplyAlu(st, pc, insn);
    }
    if (IsLoadOp(insn.op)) {
      SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.src));
      SYRUP_RETURN_IF_ERROR(CheckMemAccess(st, pc, st.regs[insn.src], insn.off,
                                           MemAccessSize(insn.op),
                                           /*is_write=*/false));
      switch (insn.op) {
        case Op::kLdxB: st.regs[insn.dst] = RegState::Range(0, 0xff); break;
        case Op::kLdxH: st.regs[insn.dst] = RegState::Range(0, 0xffff); break;
        case Op::kLdxW: st.regs[insn.dst] = RegState::Range(0, kU32Max); break;
        default: st.regs[insn.dst] = RegState::UnknownScalar(); break;
      }
      return OkStatus();
    }
    if (IsStoreOp(insn.op)) {
      SYRUP_RETURN_IF_ERROR(RequireInit(st, pc, insn.dst));
      if (UsesSrcReg(insn.op)) {
        SYRUP_RETURN_IF_ERROR(RequireScalar(st, pc, insn.src));
      }
      const bool atomic = insn.op == Op::kAtomicAddDW;
      if (atomic && st.regs[insn.dst].kind == RegKind::kPktPtr) {
        return Fail(pc, "atomic op on packet memory");
      }
      return CheckMemAccess(st, pc, st.regs[insn.dst], insn.off,
                            MemAccessSize(insn.op), /*is_write=*/true, atomic);
    }
    switch (insn.op) {
      case Op::kJa:
        step.next_pc = pc + 1 + static_cast<size_t>(
                                    static_cast<int64_t>(insn.off));
        return OkStatus();
      case Op::kLdMapFd:
        st.regs[insn.dst] = RegState::Pointer(RegKind::kConstMapPtr,
                                              static_cast<int32_t>(insn.imm));
        return OkStatus();
      case Op::kCall:
        return ApplyCall(st, pc, insn);
      case Op::kExit:
        if (st.regs[0].kind != RegKind::kScalar) {
          return Fail(pc, "exit with non-scalar or uninitialized r0");
        }
        step.done = true;
        return OkStatus();
      default:
        if (IsCondJumpOp(insn.op)) {
          return ApplyCondJump(st, pc, insn, step);
        }
        return Fail(pc, "unhandled opcode");
    }
  }

  // --- warning catalog (lint layer; only meaningful when no errors) ------

  void EmitWarnings() {
    const size_t n = prog_.insns.size();
    std::vector<Diagnostic> warnings;
    auto warn = [&](size_t pc, std::string message) {
      Diagnostic d;
      d.severity = DiagSeverity::kWarning;
      d.pc = pc;
      if (pc < n) {
        d.insn = Disassemble(prog_.insns[pc]);
      }
      d.message = std::move(message);
      warnings.push_back(std::move(d));
    };

    // Dead code: contiguous runs never reached on any feasible path.
    for (size_t i = 0; i < n;) {
      if (visited_pc_[i] != 0) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < n && visited_pc_[j] == 0) {
        ++j;
      }
      warn(i, "dead code: " + std::to_string(j - i) +
                  " unreachable instruction(s)");
      i = j;
    }

    // Statically decided branches.
    for (size_t pc = 0; pc < n; ++pc) {
      if (!IsCondJumpOp(prog_.insns[pc].op) || visited_pc_[pc] == 0) {
        continue;
      }
      if (edges_[pc] == AnalysisFacts::kEdgeTaken) {
        warn(pc, "branch condition is always true (branch always taken)");
      } else if (edges_[pc] == AnalysisFacts::kEdgeFall) {
        warn(pc, "branch condition is always false (branch never taken)");
      }
    }

    // Map lookups whose result is dereference-gated nowhere.
    for (size_t pc : lookup_sites_) {
      if (lookup_checked_.count(pc) == 0) {
        warn(pc, "map lookup result is never NULL-checked");
      }
    }

    // Same map, same constant stack key, no intervening write: the second
    // lookup returns the same value pointer and just burns a helper call.
    for (const auto& [pc, prev] : redundant_lookups_) {
      warn(pc, "redundant map lookup: same map and key already looked up "
               "at insn " +
                   std::to_string(prev) +
                   " with no intervening write; reuse that result");
    }

    // Stack bytes written but never read back (by a load or a helper).
    for (const auto& [pc, range] : stack_writes_) {
      bool read = false;
      for (size_t i = range.first; i < range.second && i < kStackSize; ++i) {
        if (stack_read_.test(i)) {
          read = true;
          break;
        }
      }
      if (!read) {
        warn(pc, "stack bytes at fp" +
                     std::to_string(static_cast<int64_t>(range.first) -
                                    kStackSize) +
                     " written but never read");
      }
    }

    std::stable_sort(warnings.begin(), warnings.end(),
                     [](const Diagnostic& x, const Diagnostic& y) {
                       return x.pc < y.pc;
                     });
    for (Diagnostic& d : warnings) {
      if (report_->diagnostics.size() >= kMaxDiagnostics) {
        break;
      }
      report_->diagnostics.push_back(std::move(d));
    }
  }

  const Program& prog_;
  ProgramContext context_;
  VerifierOptions options_;
  bool keep_going_ = false;
  VerifyReport* report_;
  bool stop_ = false;

  std::vector<uint16_t> live_;        // per-pc live-in register mask
  std::vector<uint8_t> prune_point_;  // per-pc: is a jump target
  std::vector<uint8_t> visited_pc_;   // reached on some explored path
  std::vector<uint8_t> edges_;        // feasible edges per cond jump

  // Branches parked for later, and the entries stored at join points
  // (prune_lists_ per pc), each with its pool of kept registers.
  std::vector<Parked> pending_;
  std::vector<RegState> pending_regs_;
  std::vector<Parked> stored_;
  std::vector<RegState> stored_regs_;
  std::vector<PruneList> prune_lists_;
  std::vector<UndoneRef> undone_;

  // Purity / read-set / side-effect summary accumulated across every
  // explored path (soundness wants the union over all paths, so plain
  // member state that only ever grows is exactly right).
  bool pure_ = true;
  std::set<int32_t> read_maps_;
  std::set<int32_t> write_maps_;
  std::set<int32_t> atomic_maps_;
  bool has_tail_call_ = false;
  std::map<size_t, std::string> impurities_;        // pc -> first reason
  std::map<size_t, size_t> redundant_lookups_;      // pc -> earlier pc

  // Cost state: accumulated while track_cost_ holds.
  const CostModel* cost_model_;
  bool cost_mode_ = false;
  bool track_cost_ = true;
  bool cost_gave_up_ = false;
  bool cost_any_exit_ = false;
  CostFacts cost_facts_;
  // The path being walked, as the outcome of each conditional jump on it
  // (1: taken), which with the program determines every pc. The walk is
  // depth-first, so a parked branch resumes on a prefix of it: Resume cuts
  // it back to the branch's path_len.
  std::vector<uint8_t> path_;
  std::vector<uint8_t> hottest_outcomes_;
  size_t hottest_shared_ = 0;  // leading outcomes shared with path_
  double hottest_native_ns_ = -1;
  uint64_t hottest_insns_ = 0;

  std::set<std::pair<size_t, std::string>> seen_;  // diagnostic dedup
  std::set<size_t> lookup_sites_;
  std::set<size_t> lookup_checked_;
  std::map<size_t, std::pair<size_t, size_t>> stack_writes_;
  std::bitset<kStackSize> stack_read_;
};

// Path-over-budget lint: a program whose compiled-tier worst case exceeds
// the tightest budget of its context class would be rejected at that hook,
// so warn at verify time with the concrete path. The real per-hook budget
// table (and the hard deploy gate) lives in Syrupd.
void AppendBudgetLint(VerifyReport& report, ProgramContext context,
                      const Program& prog) {
  const CostFacts& cost = report.facts.cost;
  if (!cost.bounded || cost.hottest_path.empty()) {
    return;
  }
  const double budget = context == ProgramContext::kPacket
                            ? kTightestPacketBudgetNs
                            : kThreadBudgetNs;
  const double wcet =
      cost.wcet_ns[static_cast<size_t>(ExecMode::kCompiled)];
  if (wcet <= budget) {
    return;
  }
  Diagnostic d;
  d.severity = DiagSeverity::kWarning;
  d.pc = cost.hottest_path.back();
  if (d.pc < prog.insns.size()) {
    d.insn = Disassemble(prog.insns[d.pc]);
  }
  d.message =
      "worst-case path costs " + std::to_string(llround(wcet)) +
      " ns at the compiled tier, over the " +
      (context == ProgramContext::kPacket
           ? "tightest packet-hook budget (xdp_offload, "
           : "thread-hook budget (") +
      std::to_string(llround(budget)) + " ns); hottest path: " +
      FormatPath(cost.hottest_path);
  report.diagnostics.push_back(std::move(d));
}

VerifyReport Analyze(const Program& prog, ProgramContext context,
                     const VerifierOptions& options, bool keep_going) {
  VerifyReport report;
  report.program = prog.name;
  const auto t0 = std::chrono::steady_clock::now();
  const CostModel* model = options.cost_model != nullptr
                               ? options.cost_model
                               : &DefaultCostModel();
  Verifier gate(prog, context, options, keep_going, model, &report);
  gate.Run();
  if (report.ok() && !report.facts.empty()) {
    if (gate.cost_tracked()) {
      report.facts.cost = gate.TakeCostFacts();
    } else {
      // A prune the cost walk would not make: walk again as the cost walk.
      // Acceptance already happened above: whatever happens here (budget
      // exhaustion included) only affects facts.cost.
      VerifyReport cost_report;
      Verifier cost_walk(prog, context, options, /*keep_going=*/false, model,
                         &cost_report);
      cost_walk.EnableCostMode();
      cost_walk.Run();
      report.facts.cost = cost_walk.TakeCostFacts();
    }
    if (keep_going) {
      AppendBudgetLint(report, context, prog);
    }
  }
  report.stats.verify_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return report;
}

}  // namespace

std::string_view DiagSeverityName(DiagSeverity severity) {
  return severity == DiagSeverity::kError ? "error" : "warning";
}

std::string FormatDiagnostic(const Diagnostic& diag,
                             const std::string& program_name) {
  std::string out = diag.severity == DiagSeverity::kError
                        ? "verifier: "
                        : "verifier warning: ";
  out += diag.message;
  out += " at insn " + std::to_string(diag.pc);
  if (!diag.insn.empty()) {
    out += " (" + diag.insn + ")";
  }
  out += " in program '" + program_name + "'";
  return out;
}

bool VerifyReport::ok() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) {
      return false;
    }
  }
  return true;
}

Status VerifyReport::status() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) {
      return InvalidArgumentError(FormatDiagnostic(d, program));
    }
  }
  return OkStatus();
}

Status Verify(const Program& prog, ProgramContext context,
              const VerifierOptions& options, VerifierStats* stats,
              AnalysisFacts* facts) {
  VerifyReport report = Analyze(prog, context, options, /*keep_going=*/false);
  if (stats != nullptr) {
    *stats = report.stats;
  }
  if (facts != nullptr && report.ok()) {
    *facts = std::move(report.facts);
  }
  return report.status();
}

VerifyReport VerifyAll(const Program& prog, ProgramContext context,
                       const VerifierOptions& options) {
  return Analyze(prog, context, options, /*keep_going=*/true);
}

}  // namespace syrup::bpf
