#include "inputs.hpp"

#include <fstream>
#include <stdexcept>
#include <string>

#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"

namespace gfre::e2e {

const char* family_name(Family family) {
  switch (family) {
    case Family::Mastrovito: return "mastrovito";
    case Family::Montgomery: return "montgomery";
    case Family::Karatsuba: return "karatsuba";
    case Family::ShiftAdd: return "shiftadd";
  }
  return "?";
}

const char* dialect_ext(Dialect dialect) {
  switch (dialect) {
    case Dialect::Eqn: return "eqn";
    case Dialect::Blif: return "blif";
    case Dialect::Verilog: return "v";
  }
  return "?";
}

gf2::Poly draw_pentanomial(unsigned m, unsigned limit, Prng& rng) {
  if (limit > m) limit = m;
  if (limit < 4) throw std::invalid_argument("pentanomial limit too small");
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const auto a = 3 + static_cast<unsigned>(rng.next_below(limit - 3));
    const auto b = 2 + static_cast<unsigned>(rng.next_below(a - 2));
    const auto c = 1 + static_cast<unsigned>(rng.next_below(b - 1));
    gf2::Poly p{m, a, b, c, 0};
    if (gf2::is_irreducible(p)) return p;
  }
  throw std::runtime_error("no irreducible pentanomial of degree " +
                           std::to_string(m) + " below x^" +
                           std::to_string(limit));
}

namespace {

nl::Netlist generate(Family family, const gf2m::Field& field) {
  switch (family) {
    case Family::Mastrovito: return gen::generate_mastrovito(field);
    case Family::Montgomery: return gen::generate_montgomery(field);
    case Family::Karatsuba: return gen::generate_karatsuba(field);
    case Family::ShiftAdd: return gen::generate_shift_add(field);
  }
  throw std::invalid_argument("unknown family");
}

std::string render(const nl::Netlist& netlist, Dialect dialect) {
  switch (dialect) {
    case Dialect::Eqn: return nl::write_eqn(netlist);
    case Dialect::Blif: return nl::write_blif(netlist);
    case Dialect::Verilog: return nl::write_verilog(netlist);
  }
  throw std::invalid_argument("unknown dialect");
}

}  // namespace

std::vector<Circuit> write_multiplier(Family family, const gf2::Poly& p,
                                      const std::vector<Dialect>& dialects,
                                      const std::string& dir,
                                      const std::string& stem,
                                      std::size_t twin) {
  const gf2m::Field field(p);
  const nl::Netlist netlist = generate(family, field);
  std::vector<Circuit> out;
  for (const Dialect dialect : dialects) {
    Circuit c;
    c.path = dir + "/" + stem + "." + dialect_ext(dialect);
    c.m = field.m();
    c.p = p;
    c.twin = twin;
    const std::string text = render(netlist, dialect);
    std::ofstream out_file(c.path, std::ios::binary | std::ios::trunc);
    out_file.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out_file.flush()) throw std::runtime_error("cannot write " + c.path);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace gfre::e2e
