// Ablation — extraction cost across structural multiplier families at a
// fixed field.
//
// The paper's implementation-independence claim, quantified: the *same*
// function (A*B mod P over the same field) implemented five different ways
// — flat product array (Mastrovito), matrix form, flattened two-stage
// Montgomery, interleaved shift-add, and recursive Karatsuba — always
// yields the same P(x), with extraction cost tracking netlist structure
// (cone sizes and intermediate-expression behaviour), not the function.
#include "bench_common.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "util/error.hpp"

int main() {
  using namespace gfre;
  bench::print_header("Ablation: structural families, one field");

  const unsigned m = full_scale_requested() ? 163 : 64;
  const gf2m::Field field(gf2::paper_polynomial(m).p);
  std::printf("field: %s\n\n", field.to_string().c_str());

  struct Family {
    std::string name;
    nl::Netlist netlist;
  };
  std::vector<Family> families;
  families.push_back({"Mastrovito", gen::generate_mastrovito(field)});
  {
    gen::MastrovitoOptions options;
    options.style = gen::MastrovitoOptions::Style::Matrix;
    families.push_back(
        {"Mastrovito-matrix", gen::generate_mastrovito(field, options)});
  }
  families.push_back({"Montgomery", gen::generate_montgomery(field)});
  families.push_back({"Shift-add", gen::generate_shift_add(field)});
  families.push_back({"Karatsuba", gen::generate_karatsuba(field)});

  TextTable table({"family", "#eqns", "ANDs", "XOR2s", "depth",
                   "extract(s)", "flow(s)", "mem", "P(x) recovered"});
  bool all_ok = true;
  for (const auto& family : families) {
    const auto row = bench::run_flow_row(family.netlist, field, 0.0);
    all_ok &= row.success;
    const auto histogram = family.netlist.cell_histogram();
    const auto and_count = histogram.count(nl::CellType::And)
                               ? histogram.at(nl::CellType::And)
                               : 0;
    table.add_row({family.name, fmt_thousands(family.netlist.num_equations()),
                   fmt_thousands(and_count),
                   fmt_thousands(family.netlist.xor2_equivalent_count()),
                   std::to_string(family.netlist.depth()),
                   fmt_double(row.extract_seconds, 3),
                   fmt_double(row.flow_seconds, 3), row.memory,
                   row.success ? "yes" : "NO"});
    std::printf("  done %s\n", family.name.c_str());
    std::fflush(stdout);
  }
  std::printf("\n%s\n",
              table.render("Structural-family ablation, GF(2^" +
                           std::to_string(m) + ")").c_str());
  std::printf("shape check: every family yields the exact P(x): %s\n",
              all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
