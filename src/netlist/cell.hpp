// Cell library for gate-level netlists.
//
// The paper's circuit model (Section III-A) covers basic gates plus the
// complex standard cells produced by synthesis and technology mapping
// (AOI, OAI, ...).  Each cell here provides:
//   * a Boolean evaluator (single-bit and 64-way bit-parallel), and
//   * an exact ANF model — Eq. (1) generalized to every cell — which is
//     what backward rewriting substitutes.
// The ANF of fixed-function cells is derived analytically; anything new can
// be added through Anf::from_truth_table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "anf/anf.hpp"

namespace gfre::nl {

/// Supported cell functions.  And/Or/Xor/Xnor/Nand/Nor are variadic
/// (arity >= 2; OR-family arity capped to keep ANF expansion bounded).
enum class CellType {
  Const0,  ///< constant 0 (no inputs)
  Const1,  ///< constant 1 (no inputs)
  Buf,     ///< identity
  Inv,     ///< NOT
  And,     ///< n-input AND
  Or,      ///< n-input OR
  Xor,     ///< n-input XOR
  Xnor,    ///< n-input XNOR
  Nand,    ///< n-input NAND
  Nor,     ///< n-input NOR
  Mux,     ///< Mux(s, d0, d1) = s ? d1 : d0
  Aoi21,   ///< !((a & b) | c)
  Oai21,   ///< !((a | b) & c)
  Aoi22,   ///< !((a & b) | (c & d))
  Oai22,   ///< !((a | b) & (c | d))
  Maj3,    ///< majority of three
};

/// All cell types, for iteration in tests.
std::span<const CellType> all_cell_types();

/// Canonical upper-case mnemonic ("AND", "AOI21", ...).
std::string cell_name(CellType type);

/// Inverse of cell_name (case-insensitive); throws InvalidArgument on
/// unknown names.
CellType cell_from_name(std::string_view name);

/// Checks whether `arity` inputs are legal for the cell type.
bool arity_ok(CellType type, std::size_t arity);

/// Single-bit evaluation.
bool eval_cell(CellType type, std::span<const bool> inputs);

/// 64-way bit-parallel evaluation (one call simulates 64 input vectors).
std::uint64_t eval_cell_words(CellType type,
                              std::span<const std::uint64_t> inputs);

/// Exact ANF of the cell over the given input variables — the polynomial
/// backward rewriting substitutes for the cell's output variable.
anf::Anf cell_anf(CellType type, std::span<const anf::Var> inputs);

}  // namespace gfre::nl
