#include "netlist/cell.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>
#include <utility>

#include "util/error.hpp"

namespace gfre::nl {

namespace {

constexpr std::array<CellType, 16> kAllCells = {
    CellType::Const0, CellType::Const1, CellType::Buf,   CellType::Inv,
    CellType::And,    CellType::Or,     CellType::Xor,   CellType::Xnor,
    CellType::Nand,   CellType::Nor,    CellType::Mux,   CellType::Aoi21,
    CellType::Oai21,  CellType::Aoi22,  CellType::Oai22, CellType::Maj3,
};

// OR-family ANF expansion is 2^n - 1 monomials; cap the arity so a
// malformed netlist cannot blow up the rewriter.
constexpr std::size_t kMaxOrArity = 8;
constexpr std::size_t kMaxAndArity = 64;

}  // namespace

std::span<const CellType> all_cell_types() { return kAllCells; }

std::string cell_name(CellType type) {
  switch (type) {
    case CellType::Const0: return "CONST0";
    case CellType::Const1: return "CONST1";
    case CellType::Buf: return "BUF";
    case CellType::Inv: return "INV";
    case CellType::And: return "AND";
    case CellType::Or: return "OR";
    case CellType::Xor: return "XOR";
    case CellType::Xnor: return "XNOR";
    case CellType::Nand: return "NAND";
    case CellType::Nor: return "NOR";
    case CellType::Mux: return "MUX";
    case CellType::Aoi21: return "AOI21";
    case CellType::Oai21: return "OAI21";
    case CellType::Aoi22: return "AOI22";
    case CellType::Oai22: return "OAI22";
    case CellType::Maj3: return "MAJ3";
  }
  throw InvalidArgument("unknown cell type");
}

CellType cell_from_name(std::string_view name) {
  // Canonical mnemonics (cell_name) first, then the aliases synthesis
  // netlists use.
  static constexpr std::pair<std::string_view, CellType> kNames[] = {
      {"CONST0", CellType::Const0}, {"CONST1", CellType::Const1},
      {"BUF", CellType::Buf},       {"INV", CellType::Inv},
      {"AND", CellType::And},       {"OR", CellType::Or},
      {"XOR", CellType::Xor},       {"XNOR", CellType::Xnor},
      {"NAND", CellType::Nand},     {"NOR", CellType::Nor},
      {"MUX", CellType::Mux},       {"AOI21", CellType::Aoi21},
      {"OAI21", CellType::Oai21},   {"AOI22", CellType::Aoi22},
      {"OAI22", CellType::Oai22},   {"MAJ3", CellType::Maj3},
      {"NOT", CellType::Inv},       {"BUFF", CellType::Buf},
      {"AND2", CellType::And},      {"AND3", CellType::And},
      {"AND4", CellType::And},      {"OR2", CellType::Or},
      {"OR3", CellType::Or},        {"OR4", CellType::Or},
      {"XOR2", CellType::Xor},      {"XOR3", CellType::Xor},
      {"XNOR2", CellType::Xnor},    {"NAND2", CellType::Nand},
      {"NAND3", CellType::Nand},    {"NAND4", CellType::Nand},
      {"NOR2", CellType::Nor},      {"NOR3", CellType::Nor},
      {"MUX2", CellType::Mux},
  };
  const auto same = [](std::string_view upper, std::string_view any) {
    return upper.size() == any.size() &&
           std::equal(upper.begin(), upper.end(), any.begin(),
                      [](char u, char c) {
                        return u == std::toupper(static_cast<unsigned char>(c));
                      });
  };
  for (const auto& [mnemonic, type] : kNames)
    if (same(mnemonic, name)) return type;
  throw InvalidArgument("unknown cell name '" + std::string(name) + "'");
}

bool arity_ok(CellType type, std::size_t arity) {
  switch (type) {
    case CellType::Const0:
    case CellType::Const1:
      return arity == 0;
    case CellType::Buf:
    case CellType::Inv:
      return arity == 1;
    case CellType::And:
    case CellType::Nand:
      return arity >= 2 && arity <= kMaxAndArity;
    case CellType::Or:
    case CellType::Nor:
      return arity >= 2 && arity <= kMaxOrArity;
    case CellType::Xor:
    case CellType::Xnor:
      return arity >= 2 && arity <= kMaxAndArity;
    case CellType::Mux:
    case CellType::Aoi21:
    case CellType::Oai21:
    case CellType::Maj3:
      return arity == 3;
    case CellType::Aoi22:
    case CellType::Oai22:
      return arity == 4;
  }
  return false;
}

bool eval_cell(CellType type, std::span<const bool> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  switch (type) {
    case CellType::Const0: return false;
    case CellType::Const1: return true;
    case CellType::Buf: return in[0];
    case CellType::Inv: return !in[0];
    case CellType::And: {
      for (bool b : in) if (!b) return false;
      return true;
    }
    case CellType::Nand: {
      for (bool b : in) if (!b) return true;
      return false;
    }
    case CellType::Or: {
      for (bool b : in) if (b) return true;
      return false;
    }
    case CellType::Nor: {
      for (bool b : in) if (b) return false;
      return true;
    }
    case CellType::Xor: {
      bool acc = false;
      for (bool b : in) acc ^= b;
      return acc;
    }
    case CellType::Xnor: {
      bool acc = true;
      for (bool b : in) acc ^= b;
      return acc;
    }
    case CellType::Mux: return in[0] ? in[2] : in[1];
    case CellType::Aoi21: return !((in[0] && in[1]) || in[2]);
    case CellType::Oai21: return !((in[0] || in[1]) && in[2]);
    case CellType::Aoi22: return !((in[0] && in[1]) || (in[2] && in[3]));
    case CellType::Oai22: return !((in[0] || in[1]) && (in[2] || in[3]));
    case CellType::Maj3:
      return (in[0] && in[1]) || (in[0] && in[2]) || (in[1] && in[2]);
  }
  throw InvalidArgument("unknown cell type");
}

std::uint64_t eval_cell_words(CellType type,
                              std::span<const std::uint64_t> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  constexpr std::uint64_t kOnes = ~0ull;
  switch (type) {
    case CellType::Const0: return 0;
    case CellType::Const1: return kOnes;
    case CellType::Buf: return in[0];
    case CellType::Inv: return ~in[0];
    case CellType::And: {
      std::uint64_t acc = kOnes;
      for (auto w : in) acc &= w;
      return acc;
    }
    case CellType::Nand: {
      std::uint64_t acc = kOnes;
      for (auto w : in) acc &= w;
      return ~acc;
    }
    case CellType::Or: {
      std::uint64_t acc = 0;
      for (auto w : in) acc |= w;
      return acc;
    }
    case CellType::Nor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc |= w;
      return ~acc;
    }
    case CellType::Xor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc ^= w;
      return acc;
    }
    case CellType::Xnor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc ^= w;
      return ~acc;
    }
    case CellType::Mux: return (in[0] & in[2]) | (~in[0] & in[1]);
    case CellType::Aoi21: return ~((in[0] & in[1]) | in[2]);
    case CellType::Oai21: return ~((in[0] | in[1]) & in[2]);
    case CellType::Aoi22: return ~((in[0] & in[1]) | (in[2] & in[3]));
    case CellType::Oai22: return ~((in[0] | in[1]) & (in[2] | in[3]));
    case CellType::Maj3:
      return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2]);
  }
  throw InvalidArgument("unknown cell type");
}

namespace {

using anf::Anf;
using anf::Var;

// OR over variables = 1 + prod(1 + v_i); expanding the product yields every
// nonempty subset of the inputs as a monomial.
Anf or_anf(std::span<const Var> in) {
  Anf prod = Anf::one();
  for (Var v : in) {
    prod = prod * (Anf::one() + Anf::var(v));
  }
  return Anf::one() + prod;
}

Anf and_anf(std::span<const Var> in) {
  Anf prod = Anf::one();
  for (Var v : in) prod = prod * Anf::var(v);
  return prod;
}

Anf xor_anf(std::span<const Var> in) {
  Anf sum;
  for (Var v : in) sum += Anf::var(v);
  return sum;
}

}  // namespace

anf::Anf cell_anf(CellType type, std::span<const anf::Var> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  using anf::Anf;
  switch (type) {
    case CellType::Const0: return Anf::zero();
    case CellType::Const1: return Anf::one();
    case CellType::Buf: return Anf::var(in[0]);
    case CellType::Inv: return Anf::one() + Anf::var(in[0]);
    case CellType::And: return and_anf(in);
    case CellType::Nand: return Anf::one() + and_anf(in);
    case CellType::Or: return or_anf(in);
    case CellType::Nor: return Anf::one() + or_anf(in);
    case CellType::Xor: return xor_anf(in);
    case CellType::Xnor: return Anf::one() + xor_anf(in);
    case CellType::Mux:
      // s?d1:d0 = d0 + s*d0 + s*d1
      return Anf::var(in[1]) + Anf::var(in[0]) * Anf::var(in[1]) +
             Anf::var(in[0]) * Anf::var(in[2]);
    case CellType::Aoi21:
    case CellType::Oai21:
    case CellType::Aoi22:
    case CellType::Oai22:
    case CellType::Maj3:
      break;
  }
  // Complex cells: compose from the primitive ANFs (kept out of the switch
  // so each formula reads like its schematic).
  using anf::Var;
  const auto v = [](Var x) { return Anf::var(x); };
  switch (type) {
    case CellType::Aoi21:  // !((a&b) | c)
      return Anf::one() + (v(in[0]) * v(in[1]) + v(in[2]) +
                           v(in[0]) * v(in[1]) * v(in[2]));
    case CellType::Oai21:  // !((a|b) & c)
      return Anf::one() +
             (v(in[0]) + v(in[1]) + v(in[0]) * v(in[1])) * v(in[2]);
    case CellType::Aoi22: {  // !((a&b) | (c&d))
      const Anf ab = v(in[0]) * v(in[1]);
      const Anf cd = v(in[2]) * v(in[3]);
      return Anf::one() + ab + cd + ab * cd;
    }
    case CellType::Oai22: {  // !((a|b) & (c|d))
      const Anf ab = v(in[0]) + v(in[1]) + v(in[0]) * v(in[1]);
      const Anf cd = v(in[2]) + v(in[3]) + v(in[2]) * v(in[3]);
      return Anf::one() + ab * cd;
    }
    case CellType::Maj3:  // ab + ac + bc (mod 2: abc terms cancel pairwise)
      return v(in[0]) * v(in[1]) + v(in[0]) * v(in[2]) +
             v(in[1]) * v(in[2]);
    default:
      break;
  }
  throw InvalidArgument("unknown cell type");
}

}  // namespace gfre::nl
