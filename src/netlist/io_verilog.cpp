#include "netlist/io_verilog.hpp"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "frontend/cell_library.hpp"
#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace gfre::nl {

using frontend::Loc;
using frontend::Token;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string verilog_ident(const std::string& name) {
  bool simple = !name.empty() &&
                (std::isalpha(static_cast<unsigned char>(name[0])) ||
                 name[0] == '_');
  for (char c : name) {
    if (!simple) break;
    simple = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '$';
  }
  if (simple) return name;
  return "\\" + name + " ";
}

namespace {

std::string gate_expression(const Netlist& netlist, const Gate& gate) {
  const auto name = [&](Var v) { return verilog_ident(netlist.var_name(v)); };
  const auto join = [&](const char* op) {
    std::string out;
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i != 0) {
        out += " ";
        out += op;
        out += " ";
      }
      out += name(gate.inputs[i]);
    }
    return out;
  };
  const auto& in = gate.inputs;
  switch (gate.type) {
    case CellType::Const0: return "1'b0";
    case CellType::Const1: return "1'b1";
    case CellType::Buf: return name(in[0]);
    case CellType::Inv: return "~" + name(in[0]);
    case CellType::And: return join("&");
    case CellType::Or: return join("|");
    case CellType::Xor: return join("^");
    case CellType::Xnor: return "~(" + join("^") + ")";
    case CellType::Nand: return "~(" + join("&") + ")";
    case CellType::Nor: return "~(" + join("|") + ")";
    case CellType::Mux:
      return name(in[0]) + " ? " + name(in[2]) + " : " + name(in[1]);
    case CellType::Aoi21:
      return "~((" + name(in[0]) + " & " + name(in[1]) + ") | " +
             name(in[2]) + ")";
    case CellType::Oai21:
      return "~((" + name(in[0]) + " | " + name(in[1]) + ") & " +
             name(in[2]) + ")";
    case CellType::Aoi22:
      return "~((" + name(in[0]) + " & " + name(in[1]) + ") | (" +
             name(in[2]) + " & " + name(in[3]) + "))";
    case CellType::Oai22:
      return "~((" + name(in[0]) + " | " + name(in[1]) + ") & (" +
             name(in[2]) + " | " + name(in[3]) + "))";
    case CellType::Maj3:
      return "(" + name(in[0]) + " & " + name(in[1]) + ") | (" + name(in[0]) +
             " & " + name(in[2]) + ") | (" + name(in[1]) + " & " +
             name(in[2]) + ")";
  }
  throw InvalidArgument("unknown cell type");
}

}  // namespace

std::string write_verilog(const Netlist& netlist) {
  std::ostringstream out;
  out << "// gfre structural netlist — " << netlist.num_equations()
      << " gates\n";
  out << "module " << verilog_ident(netlist.name()) << "(";
  bool first = true;
  for (Var v : netlist.inputs()) {
    if (!first) out << ", ";
    first = false;
    out << verilog_ident(netlist.var_name(v));
  }
  for (Var v : netlist.outputs()) {
    if (!first) out << ", ";
    first = false;
    out << verilog_ident(netlist.var_name(v));
  }
  out << ");\n";
  for (Var v : netlist.inputs()) {
    out << "  input " << verilog_ident(netlist.var_name(v)) << ";\n";
  }
  for (Var v : netlist.outputs()) {
    out << "  output " << verilog_ident(netlist.var_name(v)) << ";\n";
  }
  // Internal wires: driven nets that are not outputs.
  std::vector<bool> is_output(netlist.num_vars(), false);
  for (Var v : netlist.outputs()) is_output[v] = true;
  for (const Gate& g : netlist.gates()) {
    if (!is_output[g.output]) {
      out << "  wire " << verilog_ident(netlist.var_name(g.output)) << ";\n";
    }
  }
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << "  assign " << verilog_ident(netlist.var_name(gate.output))
        << " = " << gate_expression(netlist, gate) << ";\n";
  }
  out << "endmodule\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Reader: module ASTs, then hierarchy elaboration onto a GraphBuilder.
// ---------------------------------------------------------------------------

namespace {

// -- Integer (parameter) expressions ---------------------------------------

struct IntExpr {
  enum class Kind { Num, Ref, Add, Sub, Mul, Div, Neg };
  Kind kind = Kind::Num;
  std::int64_t value = 0;   ///< Num
  std::string name;         ///< Ref (parameter)
  std::vector<IntExpr> operands;
  Loc loc;
};

using ParamEnv = std::map<std::string, std::int64_t>;

std::int64_t eval_int(const IntExpr& e, const ParamEnv& env) {
  switch (e.kind) {
    case IntExpr::Kind::Num:
      return e.value;
    case IntExpr::Kind::Ref: {
      auto it = env.find(e.name);
      if (it == env.end())
        frontend::fail_at(e.loc, "undefined parameter '" + e.name + "'");
      return it->second;
    }
    case IntExpr::Kind::Add:
      return eval_int(e.operands[0], env) + eval_int(e.operands[1], env);
    case IntExpr::Kind::Sub:
      return eval_int(e.operands[0], env) - eval_int(e.operands[1], env);
    case IntExpr::Kind::Mul:
      return eval_int(e.operands[0], env) * eval_int(e.operands[1], env);
    case IntExpr::Kind::Div: {
      std::int64_t d = eval_int(e.operands[1], env);
      if (d == 0) frontend::fail_at(e.loc, "division by zero in constant");
      return eval_int(e.operands[0], env) / d;
    }
    case IntExpr::Kind::Neg:
      return -eval_int(e.operands[0], env);
  }
  return 0;
}

// -- Net expressions -------------------------------------------------------

/// A net, or one bit of a vector, as written in the source.
struct NetRef {
  std::string name;
  std::optional<IntExpr> index;  ///< bit-select
  Loc loc;
};

/// An `assign` right-hand side: an anonymous cell whose pin i is the net
/// refs[i].  Pins are numbered in operand order, the order emission
/// consumes them, so `s ? d1 : d0` reads (s, d0, d1).
struct NetExpr {
  frontend::BoolExpr function;
  std::vector<NetRef> refs;
};

/// A port connection's actual: a net reference or a 1-bit constant.  Any
/// other expression parses (Compound) and is diagnosed at `net.loc` when
/// its instance elaborates.
struct Actual {
  enum class Kind : unsigned char { Net, Const0, Const1, Compound };
  Kind kind = Kind::Net;
  NetRef net;  ///< the reference (Net), or just the position
};

// -- Module AST ------------------------------------------------------------

enum class Dir { Input, Output, Wire };

struct Range {
  IntExpr msb;
  IntExpr lsb;
};

struct NetDecl {
  Dir dir = Dir::Wire;
  std::optional<Range> range;
  std::string name;
  Loc loc;
};

struct Param {
  bool local = false;
  std::string name;
  IntExpr value;
  Loc loc;
};

struct Assign {
  NetRef lhs;
  NetExpr rhs;
  Loc loc;
};

struct Conn {
  std::string formal;  ///< empty for positional
  std::optional<Actual> actual;
  Loc loc;
};

struct Instance {
  std::string target;  ///< module / cell / primitive name
  std::string name;    ///< instance name ("" for anonymous primitives)
  std::vector<std::pair<std::string, IntExpr>> overrides;
  std::vector<Conn> conns;
  bool named = false;
  Loc loc;
};

struct Item {
  enum class Kind { Assign, Instance };
  Kind kind;
  std::size_t index;  ///< into assigns / instances
};

struct Module {
  std::string name;
  std::vector<std::string> header_ports;
  std::vector<NetDecl> decls;
  std::vector<Param> params;
  std::vector<Assign> assigns;
  std::vector<Instance> instances;
  std::vector<Item> items;
  Loc loc;
};

bool is_primitive(const std::string& word) {
  return word == "and" || word == "or" || word == "nand" || word == "nor" ||
         word == "xor" || word == "xnor" || word == "not" || word == "buf";
}

CellType primitive_cell(const std::string& word) {
  if (word == "and") return CellType::And;
  if (word == "or") return CellType::Or;
  if (word == "nand") return CellType::Nand;
  if (word == "nor") return CellType::Nor;
  if (word == "xor") return CellType::Xor;
  if (word == "xnor") return CellType::Xnor;
  if (word == "not") return CellType::Inv;
  return CellType::Buf;
}

bool is_keyword(const std::string& word) {
  return word == "module" || word == "endmodule" || word == "input" ||
         word == "output" || word == "wire" || word == "assign" ||
         word == "parameter" || word == "localparam" || word == "inout";
}

// -- Parser ----------------------------------------------------------------

class VerilogParser {
 public:
  VerilogParser(const std::string& text, const std::string& filename)
      : lexer_(text, filename,
               frontend::LexSyntax{.slash_comments = true,
                                   .verilog_numbers = true,
                                   .escaped_idents = true,
                                   .directives = true},
               frontend::filesystem_include_resolver()) {}

  std::vector<Module> parse() {
    std::vector<Module> modules;
    while (lexer_.peek().kind != Token::Kind::End) {
      Token kw = lexer_.expect_ident("'module'");
      if (kw.text != "module" && kw.text != "macromodule")
        frontend::fail_at(kw.loc, "expected 'module', got '" + kw.text + "'");
      modules.push_back(parse_module(kw.loc));
    }
    return modules;
  }

 private:
  Module parse_module(const Loc& loc) {
    Module m;
    m.loc = loc;
    Token name = lexer_.expect_ident("module name");
    m.name = name.text;
    if (lexer_.accept_punct('#')) parse_param_ports(m);
    if (lexer_.accept_punct('(')) parse_port_list(m);
    lexer_.expect_punct(';');
    for (;;) {
      const Token& t = lexer_.peek();
      if (t.kind == Token::Kind::End)
        frontend::fail_at(m.loc, "missing 'endmodule'");
      if (t.kind != Token::Kind::Ident)
        frontend::fail_at(t.loc, "expected a module item, got '" + t.text +
                                     "'");
      if (t.text == "endmodule") {
        lexer_.next();
        break;
      }
      if (t.text == "inout")
        frontend::fail_at(t.loc, "inout ports are not supported");
      if (t.text == "input" || t.text == "output" || t.text == "wire") {
        parse_net_decl(m);
      } else if (t.text == "parameter" || t.text == "localparam") {
        parse_param_decl(m, t.text == "localparam");
      } else if (t.text == "assign") {
        parse_assign(m);
      } else {
        parse_instance(m);
      }
    }
    return m;
  }

  void parse_param_ports(Module& m) {
    // #( parameter NAME = expr, ... )
    lexer_.expect_punct('(');
    if (lexer_.accept_punct(')')) return;
    for (;;) {
      lexer_.accept_ident("parameter");
      Token name = lexer_.expect_ident("parameter name");
      lexer_.expect_punct('=');
      Param p;
      p.name = name.text;
      p.loc = name.loc;
      p.value = parse_int_expr();
      m.params.push_back(std::move(p));
      if (lexer_.accept_punct(')')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_port_list(Module& m) {
    if (lexer_.accept_punct(')')) return;
    // Non-ANSI (name list) or ANSI (direction-annotated declarations).
    Dir dir = Dir::Wire;
    bool ansi = false;
    std::optional<Range> range;
    for (;;) {
      const Token& t = lexer_.peek();
      if (t.kind != Token::Kind::Ident)
        frontend::fail_at(t.loc, "expected a port name, got '" + t.text + "'");
      if (t.text == "inout")
        frontend::fail_at(t.loc, "inout ports are not supported");
      if (t.text == "input" || t.text == "output" || t.text == "wire") {
        ansi = true;
        dir = t.text == "input" ? Dir::Input
              : t.text == "output" ? Dir::Output
                                   : Dir::Wire;
        lexer_.next();
        lexer_.accept_ident("wire");
        range = parse_optional_range();
      }
      Token name = lexer_.expect_ident("port name");
      m.header_ports.push_back(name.text);
      if (ansi) {
        NetDecl d;
        d.dir = dir;
        d.range = range;
        d.name = name.text;
        d.loc = name.loc;
        m.decls.push_back(std::move(d));
      }
      if (lexer_.accept_punct(')')) break;
      lexer_.expect_punct(',');
    }
  }

  std::optional<Range> parse_optional_range() {
    if (!lexer_.accept_punct('[')) return std::nullopt;
    Range r;
    r.msb = parse_int_expr();
    lexer_.expect_punct(':');
    r.lsb = parse_int_expr();
    lexer_.expect_punct(']');
    return r;
  }

  void parse_net_decl(Module& m) {
    Token kw = lexer_.next();
    Dir dir = kw.text == "input" ? Dir::Input
              : kw.text == "output" ? Dir::Output
                                    : Dir::Wire;
    std::optional<Range> range = parse_optional_range();
    for (;;) {
      Token name = lexer_.expect_ident("net name");
      NetDecl d;
      d.dir = dir;
      d.range = range;
      d.name = name.text;
      d.loc = name.loc;
      m.decls.push_back(std::move(d));
      if (lexer_.accept_punct(';')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_param_decl(Module& m, bool local) {
    lexer_.next();  // parameter / localparam
    for (;;) {
      Token name = lexer_.expect_ident("parameter name");
      lexer_.expect_punct('=');
      Param p;
      p.local = local;
      p.name = name.text;
      p.loc = name.loc;
      p.value = parse_int_expr();
      m.params.push_back(std::move(p));
      if (lexer_.accept_punct(';')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_assign(Module& m) {
    Token kw = lexer_.next();  // assign
    Assign a;
    a.loc = kw.loc;
    refs_.clear();
    const Parsed lhs = parse_primary();
    if (lhs.expr.kind != frontend::BoolExpr::Kind::Ref)
      frontend::fail_at(lhs.loc, "assign target must be a net");
    a.lhs = std::move(refs_[0]);
    lexer_.expect_punct('=');
    a.rhs = parse_net_expr();
    lexer_.expect_punct(';');
    m.items.push_back({Item::Kind::Assign, m.assigns.size()});
    m.assigns.push_back(std::move(a));
  }

  void parse_instance(Module& m) {
    Token target = lexer_.expect_ident("module or cell name");
    if (is_keyword(target.text))
      frontend::fail_at(target.loc,
                        "unexpected keyword '" + target.text + "'");
    Instance inst;
    inst.target = target.text;
    inst.loc = target.loc;
    if (lexer_.accept_punct('#')) {
      lexer_.expect_punct('(');
      for (;;) {
        lexer_.expect_punct('.');
        Token pname = lexer_.expect_ident("parameter name");
        lexer_.expect_punct('(');
        inst.overrides.emplace_back(pname.text, parse_int_expr());
        lexer_.expect_punct(')');
        if (lexer_.accept_punct(')')) break;
        lexer_.expect_punct(',');
      }
    }
    if (lexer_.peek().kind == Token::Kind::Ident) {
      inst.name = lexer_.next().text;
    } else if (!is_primitive(inst.target)) {
      frontend::fail_at(lexer_.peek().loc, "expected an instance name");
    }
    lexer_.expect_punct('(');
    if (!lexer_.accept_punct(')')) {
      bool first = true;
      for (;;) {
        Conn conn;
        conn.loc = lexer_.peek().loc;
        if (lexer_.accept_punct('.')) {
          if (!first && !inst.named)
            frontend::fail_at(conn.loc,
                              "cannot mix named and positional connections");
          inst.named = true;
          Token formal = lexer_.expect_ident("port name");
          conn.formal = formal.text;
          lexer_.expect_punct('(');
          if (!lexer_.accept_punct(')')) {
            conn.actual = parse_actual();
            lexer_.expect_punct(')');
          }
        } else {
          if (inst.named)
            frontend::fail_at(conn.loc,
                              "cannot mix named and positional connections");
          conn.actual = parse_actual();
        }
        inst.conns.push_back(std::move(conn));
        first = false;
        if (lexer_.accept_punct(')')) break;
        lexer_.expect_punct(',');
      }
    }
    lexer_.expect_punct(';');
    m.items.push_back({Item::Kind::Instance, m.instances.size()});
    m.instances.push_back(std::move(inst));
  }

  // -- Expressions (precedence low to high: ?: | ^ & unary primary) ------
  //
  // Each operator becomes a BoolExpr gate node and each net reference a
  // Ref node numbered into refs_ in source order; parse_net_expr then
  // renumbers the pins into operand order.

  /// A subexpression and the position diagnostics give it: its root
  /// operator, or the condition of a `?:`.
  struct Parsed {
    frontend::BoolExpr expr;
    Loc loc;
  };

  NetExpr parse_net_expr() {
    refs_.clear();
    NetExpr e;
    e.function = parse_ternary().expr;
    e.refs.reserve(refs_.size());
    number_pins(e.function, e.refs);
    return e;
  }

  /// Moves each Ref's reference from refs_ to `refs` in operand order.
  void number_pins(frontend::BoolExpr& e, std::vector<NetRef>& refs) {
    if (e.kind == frontend::BoolExpr::Kind::Ref) {
      refs.push_back(std::move(refs_[e.pin]));
      e.pin = static_cast<unsigned>(refs.size() - 1);
      return;
    }
    for (frontend::BoolExpr& op : e.operands) number_pins(op, refs);
  }

  Actual parse_actual() {
    refs_.clear();
    Parsed p = parse_ternary();
    Actual a;
    if (p.expr.kind == frontend::BoolExpr::Kind::Ref) {
      a.net = std::move(refs_[0]);
      return a;
    }
    a.kind = p.expr.type == CellType::Const0   ? Actual::Kind::Const0
             : p.expr.type == CellType::Const1 ? Actual::Kind::Const1
                                               : Actual::Kind::Compound;
    a.net.loc = std::move(p.loc);
    return a;
  }

  Parsed parse_ternary() {
    Parsed cond = parse_or();
    if (!lexer_.accept_punct('?')) return cond;
    Parsed then_e = parse_ternary();
    lexer_.expect_punct(':');
    Parsed else_e = parse_ternary();
    // Mux operand order is (select, d0, d1): select ? d1 : d0.
    return {frontend::BoolExpr::gate(CellType::Mux,
                                     {std::move(cond.expr),
                                      std::move(else_e.expr),
                                      std::move(then_e.expr)}),
            std::move(cond.loc)};
  }

  Parsed parse_or() {
    return parse_binary('|', CellType::Or, &VerilogParser::parse_xor);
  }
  Parsed parse_xor() {
    return parse_binary('^', CellType::Xor, &VerilogParser::parse_and);
  }
  Parsed parse_and() {
    return parse_binary('&', CellType::And, &VerilogParser::parse_unary);
  }

  /// A left-associative chain of `op` over the next-tighter level.
  Parsed parse_binary(char op, CellType type,
                      Parsed (VerilogParser::*operand)()) {
    Parsed e = (this->*operand)();
    while (lexer_.peek().is_punct(op)) {
      Loc loc = lexer_.next().loc;
      Parsed rhs = (this->*operand)();
      e = {frontend::BoolExpr::gate(type,
                                    {std::move(e.expr), std::move(rhs.expr)}),
           std::move(loc)};
    }
    return e;
  }

  Parsed parse_unary() {
    if (lexer_.peek().is_punct('~') || lexer_.peek().is_punct('!')) {
      Loc loc = lexer_.next().loc;
      return {frontend::BoolExpr::gate(CellType::Inv, {parse_unary().expr}),
              std::move(loc)};
    }
    return parse_primary();
  }

  Parsed parse_primary() {
    const Token& t = lexer_.peek();
    if (t.is_punct('(')) {
      lexer_.next();
      Parsed e = parse_ternary();
      lexer_.expect_punct(')');
      return e;
    }
    if (t.kind == Token::Kind::Number) {
      Token num = lexer_.next();
      if (num.value > 1 || (num.width != 0 && num.width != 1))
        frontend::fail_at(num.loc,
                          "unsupported literal '" + num.text +
                              "' (only 1-bit constants allowed)");
      return {frontend::BoolExpr::gate(
                  num.value == 1 ? CellType::Const1 : CellType::Const0, {}),
              std::move(num.loc)};
    }
    if (t.kind == Token::Kind::Ident) {
      Token id = lexer_.next();
      if (is_keyword(id.text) && !id.escaped)
        frontend::fail_at(id.loc, "unexpected keyword '" + id.text + "'");
      NetRef ref{std::move(id.text), std::nullopt, id.loc};
      if (!id.escaped && lexer_.peek().is_punct('[')) {
        lexer_.next();
        ref.index = parse_int_expr();
        lexer_.expect_punct(']');
      }
      refs_.push_back(std::move(ref));
      return {frontend::BoolExpr::ref(static_cast<unsigned>(refs_.size() - 1)),
              std::move(id.loc)};
    }
    frontend::fail_at(t.loc, "expected an operand, got '" + t.text + "'");
  }

  // -- Constant integer expressions ---------------------------------------

  IntExpr parse_int_expr() { return parse_int_add(); }

  IntExpr parse_int_add() {
    IntExpr e = parse_int_mul();
    for (;;) {
      bool add = lexer_.peek().is_punct('+');
      bool sub = lexer_.peek().is_punct('-');
      if (!add && !sub) return e;
      Loc loc = lexer_.next().loc;
      IntExpr rhs = parse_int_mul();
      IntExpr joined;
      joined.kind = add ? IntExpr::Kind::Add : IntExpr::Kind::Sub;
      joined.loc = loc;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
  }

  IntExpr parse_int_mul() {
    IntExpr e = parse_int_unary();
    for (;;) {
      bool mul = lexer_.peek().is_punct('*');
      bool div = lexer_.peek().is_punct('/');
      if (!mul && !div) return e;
      Loc loc = lexer_.next().loc;
      IntExpr rhs = parse_int_unary();
      IntExpr joined;
      joined.kind = mul ? IntExpr::Kind::Mul : IntExpr::Kind::Div;
      joined.loc = loc;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
  }

  IntExpr parse_int_unary() {
    const Token& t = lexer_.peek();
    IntExpr e;
    e.loc = t.loc;
    if (t.is_punct('-')) {
      lexer_.next();
      e.kind = IntExpr::Kind::Neg;
      e.operands = {parse_int_unary()};
      return e;
    }
    if (t.is_punct('(')) {
      lexer_.next();
      e = parse_int_expr();
      lexer_.expect_punct(')');
      return e;
    }
    if (t.kind == Token::Kind::Number) {
      Token num = lexer_.next();
      e.kind = IntExpr::Kind::Num;
      e.value = static_cast<std::int64_t>(num.value);
      return e;
    }
    if (t.kind == Token::Kind::Ident) {
      Token id = lexer_.next();
      e.kind = IntExpr::Kind::Ref;
      e.name = id.text;
      return e;
    }
    frontend::fail_at(t.loc,
                      "expected a constant expression, got '" + t.text + "'");
  }

  frontend::Lexer lexer_;
  std::vector<NetRef> refs_;  ///< the expression being parsed, source order
};

// -- Elaboration -----------------------------------------------------------

/// A module-scope symbol: a parameter value or a (possibly vector) net
/// whose bits are bound to flat (top-level) net names.
struct Symbol {
  bool vector_net = false;
  std::int64_t lsb = 0;  ///< smallest declared index (vectors)
  std::vector<std::string> bits;  ///< flat names; bits[i] = index lsb+i
  Dir dir = Dir::Wire;
  Loc loc;
};

struct Scope {
  std::string prefix;  ///< "" at top, "u0." below
  ParamEnv params;
  std::map<std::string, Symbol> nets;
};

class Elaborator {
 public:
  Elaborator(const std::vector<Module>& modules,
             const frontend::FrontendOptions& options,
             const std::string& filename)
      : options_(options), filename_(filename) {
    for (const Module& m : modules) {
      if (!by_name_.emplace(m.name, &m).second)
        frontend::fail_at(m.loc, "module '" + m.name + "' defined twice");
    }
  }

  Netlist run() {
    const Module& top = select_top();
    Scope scope;
    elaborate_module(top, scope, /*overrides=*/{}, /*bindings=*/nullptr,
                     top.loc, /*is_top=*/true);
    Netlist netlist = builder_.build();
    netlist.set_name(top.name);
    return netlist;
  }

 private:
  const Module& select_top() {
    if (!options_.top.empty()) {
      auto it = by_name_.find(options_.top);
      if (it == by_name_.end())
        throw InvalidArgument("top module '" + options_.top + "' not found");
      return *it->second;
    }
    if (by_name_.size() == 1) return *by_name_.begin()->second;
    // The unique uninstantiated module is the top.
    std::unordered_set<std::string> instantiated;
    for (const auto& [name, m] : by_name_)
      for (const Instance& inst : m->instances)
        instantiated.insert(inst.target);
    const Module* top = nullptr;
    for (const auto& [name, m] : by_name_) {
      if (instantiated.count(name)) continue;
      if (top)
        throw InvalidArgument(
            "multiple top-level module candidates ('" + top->name + "', '" +
            name + "'); select one explicitly");
      top = m;
    }
    if (!top)
      throw InvalidArgument(
          "no top-level module (every module is instantiated)");
    return *top;
  }

  /// Elaborates `m` into the builder.  `bindings`, when non-null, maps
  /// formal port names to flat actual bit vectors.
  void elaborate_module(
      const Module& m, Scope& scope,
      const std::vector<std::pair<std::string, std::int64_t>>& overrides,
      const std::map<std::string, std::vector<std::string>>* bindings,
      const Loc& site, bool is_top = false) {
    if (path_.size() >= 64)
      frontend::fail_at(site, "module hierarchy too deep (limit 64)");
    path_.push_back(m.name);

    // Parameters: defaults in declaration order, overridden by name.
    for (const Param& p : m.params) {
      std::int64_t value = eval_int(p.value, scope.params);
      if (!p.local)
        for (const auto& [oname, ovalue] : overrides)
          if (oname == p.name) value = ovalue;
      if (!scope.params.emplace(p.name, value).second)
        frontend::fail_at(p.loc, "parameter '" + p.name + "' defined twice");
    }
    for (const auto& [oname, ovalue] : overrides) {
      bool known = false;
      for (const Param& p : m.params)
        known = known || (!p.local && p.name == oname);
      if (!known)
        frontend::fail_at(site, "module '" + m.name +
                                    "' has no parameter '" + oname + "'");
    }

    // Net declarations.
    std::unordered_set<std::string> header(m.header_ports.begin(),
                                           m.header_ports.end());
    for (const NetDecl& d : m.decls) {
      Symbol sym;
      sym.dir = d.dir;
      sym.loc = d.loc;
      if (d.range) {
        std::int64_t msb = eval_int(d.range->msb, scope.params);
        std::int64_t lsb = eval_int(d.range->lsb, scope.params);
        if (msb < lsb) std::swap(msb, lsb);
        if (msb - lsb + 1 > 4096)
          frontend::fail_at(d.loc, "vector '" + d.name + "' too wide");
        sym.vector_net = true;
        sym.lsb = lsb;
        for (std::int64_t i = lsb; i <= msb; ++i)
          sym.bits.push_back(scope.prefix + d.name + "[" +
                             std::to_string(i) + "]");
      } else {
        sym.bits.push_back(scope.prefix + d.name);
      }
      if (d.dir != Dir::Wire && !header.count(d.name))
        frontend::fail_at(d.loc, "port '" + d.name +
                                     "' is not in the module port list");
      // Port formals bound to parent actuals alias the parent nets.
      if (bindings && d.dir != Dir::Wire) {
        auto b = bindings->find(d.name);
        if (b != bindings->end()) {
          if (b->second.size() != sym.bits.size())
            frontend::fail_at(
                d.loc, "port '" + d.name + "' is " +
                           std::to_string(sym.bits.size()) +
                           " bits wide but connects to " +
                           std::to_string(b->second.size()) + " bits");
          sym.bits = b->second;
        }
      }
      auto it = scope.nets.find(d.name);
      if (it == scope.nets.end()) {
        scope.nets.emplace(d.name, std::move(sym));
      } else if (d.dir == Dir::Wire && it->second.dir != Dir::Wire) {
        // "output z; wire z;" — the wire redeclaration of a port is legal
        // non-ANSI style; the port symbol stays.
      } else {
        frontend::fail_at(d.loc, "net '" + d.name + "' declared twice");
      }
    }
    for (const std::string& port : m.header_ports) {
      auto it = scope.nets.find(port);
      if (it == scope.nets.end() || it->second.dir == Dir::Wire)
        frontend::fail_at(m.loc, "port '" + port +
                                     "' has no direction declaration");
    }

    // Primary IO is registered before the items elaborate, so driving an
    // input is diagnosed at the offending statement.  Header port order
    // defines bit order (vector bits LSB-first).
    if (is_top) {
      for (const std::string& port : m.header_ports) {
        const Symbol& sym = scope.nets.at(port);
        if (sym.dir == Dir::Input)
          for (const std::string& bit : sym.bits)
            builder_.add_input(bit, sym.loc);
      }
      for (const std::string& port : m.header_ports) {
        const Symbol& sym = scope.nets.at(port);
        if (sym.dir == Dir::Output)
          for (const std::string& bit : sym.bits)
            builder_.add_output(bit, sym.loc);
      }
    }

    // Items in source order.
    for (const Item& item : m.items) {
      if (item.kind == Item::Kind::Assign)
        elaborate_assign(m.assigns[item.index], scope);
      else
        elaborate_instance(m.instances[item.index], scope);
    }
    path_.pop_back();
  }

  /// Resolves a reference to a single flat bit name (a Symbol's, so it
  /// stays valid while the scope lives).
  const std::string& resolve_bit(const NetRef& e, Scope& scope) {
    Symbol* sym = lookup(e.name, scope, e.loc, /*implicit_ok=*/!e.index);
    if (e.index) {
      if (!sym->vector_net)
        frontend::fail_at(e.loc,
                          "bit-select on scalar net '" + e.name + "'");
      std::int64_t idx = eval_int(*e.index, scope.params);
      std::int64_t off = idx - sym->lsb;
      if (off < 0 || off >= static_cast<std::int64_t>(sym->bits.size()))
        frontend::fail_at(e.loc, "index " + std::to_string(idx) +
                                     " out of range for '" + e.name + "'");
      return sym->bits[static_cast<std::size_t>(off)];
    }
    if (sym->bits.size() != 1)
      frontend::fail_at(e.loc,
                        "vector net '" + e.name + "' used as a scalar");
    return sym->bits[0];
  }

  // Resolves a reference to all its bits (vector actuals in port
  // connections).
  std::vector<std::string> resolve_bits(const NetRef& e, Scope& scope) {
    if (!e.index) {
      Symbol* sym = lookup(e.name, scope, e.loc, /*implicit_ok=*/true);
      return sym->bits;
    }
    return {resolve_bit(e, scope)};
  }

  /// Scope lookup; scalar nets referenced before declaration are created
  /// implicitly (matching common netlist-writer behavior).
  Symbol* lookup(const std::string& name, Scope& scope, const Loc& loc,
                 bool implicit_ok) {
    auto it = scope.nets.find(name);
    if (it != scope.nets.end()) return &it->second;
    if (scope.params.count(name))
      frontend::fail_at(loc, "parameter '" + name + "' used as a net");
    if (!implicit_ok)
      frontend::fail_at(loc, "undeclared vector net '" + name + "'");
    Symbol sym;
    sym.loc = loc;
    sym.bits.push_back(scope.prefix + name);
    return &scope.nets.emplace(name, std::move(sym)).first->second;
  }

  /// The flat net holding constant 0/1, creating its node on first use.
  std::string const_net(bool one) {
    std::string name = one ? "$const1" : "$const0";
    bool& made = one ? made_const1_ : made_const0_;
    if (!made) {
      builder_.add_gate(name, one ? CellType::Const1 : CellType::Const0, {},
                         Loc{filename_, 0, 0});
      made = true;
    }
    return name;
  }

  /// An assign is an anonymous cell: its pins resolve to flat nets here,
  /// and every instance of the module shares the AST's function.
  void elaborate_assign(const Assign& a, Scope& scope) {
    const std::string& lhs = resolve_bit(a.lhs, scope);
    args_.clear();
    for (const NetRef& ref : a.rhs.refs)
      args_.push_back(resolve_bit(ref, scope));
    builder_.add_function(lhs, &a.rhs.function, args_, a.loc);
  }

  void elaborate_instance(const Instance& inst, Scope& scope) {
    auto mod_it = by_name_.find(inst.target);
    if (mod_it != by_name_.end()) {
      elaborate_module_instance(inst, *mod_it->second, scope);
      return;
    }
    if (is_primitive(inst.target)) {
      elaborate_primitive(inst, scope);
      return;
    }
    const frontend::LibCell* cell =
        options_.library ? options_.library->find(inst.target) : nullptr;
    if (cell) {
      elaborate_cell(inst, *cell, scope);
      return;
    }
    if (options_.library)
      frontend::fail_at(inst.loc, "unknown module or cell '" + inst.target +
                                      "' (not in library '" +
                                      options_.library->name() + "')");
    frontend::fail_at(inst.loc, "unknown module '" + inst.target +
                                    "' (no cell library loaded)");
  }

  void elaborate_module_instance(const Instance& inst, const Module& child,
                                 Scope& scope) {
    for (const std::string& frame : path_)
      if (frame == child.name)
        frontend::fail_at(inst.loc, "recursive instantiation of module '" +
                                        child.name + "'");
    // Evaluate parameter overrides in the parent scope.
    std::vector<std::pair<std::string, std::int64_t>> overrides;
    for (const auto& [pname, pexpr] : inst.overrides)
      overrides.emplace_back(pname, eval_int(pexpr, scope.params));
    // Bind formals to flat actual bit vectors.
    std::map<std::string, std::vector<std::string>> bindings;
    auto bind = [&](const std::string& formal, const Conn& conn) {
      if (bindings.count(formal))
        frontend::fail_at(conn.loc,
                          "port '" + formal + "' connected twice");
      if (!conn.actual) return;  // explicitly unconnected
      bindings.emplace(formal, resolve_actual(*conn.actual, scope));
    };
    if (inst.named) {
      std::unordered_set<std::string> ports(child.header_ports.begin(),
                                            child.header_ports.end());
      for (const Conn& conn : inst.conns) {
        if (!ports.count(conn.formal))
          frontend::fail_at(conn.loc, "module '" + child.name +
                                          "' has no port '" + conn.formal +
                                          "'");
        bind(conn.formal, conn);
      }
    } else {
      if (inst.conns.size() > child.header_ports.size())
        frontend::fail_at(inst.loc,
                          "module '" + child.name + "' has " +
                              std::to_string(child.header_ports.size()) +
                              " ports but " +
                              std::to_string(inst.conns.size()) +
                              " connections given");
      for (std::size_t i = 0; i < inst.conns.size(); ++i)
        bind(child.header_ports[i], inst.conns[i]);
    }
    Scope child_scope;
    child_scope.prefix = scope.prefix + instance_prefix(inst) + ".";
    elaborate_module(child, child_scope, overrides, &bindings, inst.loc);
  }

  std::string instance_prefix(const Instance& inst) {
    if (!inst.name.empty()) return inst.name;
    return "$" + inst.target + std::to_string(anon_counter_++);
  }

  /// Resolves a port-connection actual to flat bit names.
  std::vector<std::string> resolve_actual(const Actual& a, Scope& scope) {
    if (a.kind == Actual::Kind::Net) return resolve_bits(a.net, scope);
    return {connection_bit(a, scope)};
  }

  void elaborate_primitive(const Instance& inst, Scope& scope) {
    if (!inst.overrides.empty())
      frontend::fail_at(inst.loc, "gate primitive '" + inst.target +
                                      "' takes no parameters");
    if (inst.named)
      frontend::fail_at(inst.loc, "gate primitive '" + inst.target +
                                      "' uses positional connections");
    CellType type = primitive_cell(inst.target);
    if (inst.conns.size() < 1 || !arity_ok(type, inst.conns.size() - 1))
      frontend::fail_at(inst.loc,
                        "wrong connection count for gate primitive '" +
                            inst.target + "'");
    const std::string out = connection_bit(inst.conns[0], scope);
    std::vector<std::string> args;
    for (std::size_t i = 1; i < inst.conns.size(); ++i)
      args.push_back(connection_bit(inst.conns[i], scope));
    builder_.add_gate(out, type, views(args), inst.loc);
  }

  std::string connection_bit(const Conn& conn, Scope& scope) {
    if (!conn.actual)
      frontend::fail_at(conn.loc, "connection must not be empty here");
    return connection_bit(*conn.actual, scope);
  }

  /// One flat bit for `a`; only nets, bit-selects and 1-bit constants are
  /// supported.
  std::string connection_bit(const Actual& a, Scope& scope) {
    switch (a.kind) {
      case Actual::Kind::Net: return resolve_bit(a.net, scope);
      case Actual::Kind::Const0: return const_net(false);
      case Actual::Kind::Const1: return const_net(true);
      case Actual::Kind::Compound: break;
    }
    frontend::fail_at(
        a.net.loc, "port connections must be nets, bit-selects or constants");
  }

  void elaborate_cell(const Instance& inst, const frontend::LibCell& cell,
                      Scope& scope) {
    if (!inst.overrides.empty())
      frontend::fail_at(inst.loc, "'" + cell.name +
                                      "' is a library cell and takes no "
                                      "parameters");
    // Collect one actual per input pin plus the output actual.
    std::vector<std::optional<std::string>> pin_actual(cell.inputs.size());
    std::optional<std::string> out_actual;
    if (inst.named) {
      for (const Conn& conn : inst.conns) {
        int pin = cell.find_input(conn.formal);
        if (pin >= 0) {
          if (pin_actual[static_cast<std::size_t>(pin)])
            frontend::fail_at(conn.loc,
                              "pin '" + conn.formal + "' connected twice");
          if (conn.actual)
            pin_actual[static_cast<std::size_t>(pin)] =
                connection_bit(conn, scope);
        } else if (conn.formal == cell.output) {
          if (out_actual)
            frontend::fail_at(conn.loc,
                              "pin '" + conn.formal + "' connected twice");
          if (conn.actual) out_actual = connection_bit(conn, scope);
        } else {
          frontend::fail_at(conn.loc, "cell '" + cell.name +
                                          "' has no pin '" + conn.formal +
                                          "'");
        }
      }
    } else {
      // Positional convention matches Verilog primitives: output first,
      // then inputs in pin order.
      if (inst.conns.size() != cell.inputs.size() + 1)
        frontend::fail_at(inst.loc,
                          "cell '" + cell.name + "' expects " +
                              std::to_string(cell.inputs.size() + 1) +
                              " connections (output first), got " +
                              std::to_string(inst.conns.size()));
      out_actual = connection_bit(inst.conns[0], scope);
      for (std::size_t i = 0; i < cell.inputs.size(); ++i)
        pin_actual[i] = connection_bit(inst.conns[i + 1], scope);
    }
    for (std::size_t i = 0; i < pin_actual.size(); ++i)
      if (!pin_actual[i])
        frontend::fail_at(inst.loc, "cell '" + cell.name + "' input pin '" +
                                        cell.inputs[i] + "' is unconnected");
    const std::string out = out_actual ? *out_actual
                                       : scope.prefix + instance_prefix(inst) +
                                             "." + cell.output;
    std::vector<std::string> args;
    for (const auto& a : pin_actual) args.push_back(*a);
    builder_.add_cell(out, &cell, views(args), inst.loc);
  }

  static std::vector<std::string_view> views(
      const std::vector<std::string>& names) {
    return {names.begin(), names.end()};
  }

  const frontend::FrontendOptions& options_;
  std::string filename_;
  std::unordered_map<std::string, const Module*> by_name_;
  frontend::GraphBuilder builder_;
  std::vector<std::string> path_;  ///< module names on the elaboration stack
  std::vector<std::string_view> args_;  ///< elaborate_assign scratch
  bool made_const0_ = false;
  bool made_const1_ = false;
  unsigned anon_counter_ = 0;
};

}  // namespace

Netlist read_verilog(const std::string& text, const std::string& filename,
                     const frontend::FrontendOptions& options) {
  std::vector<Module> modules = VerilogParser(text, filename).parse();
  if (modules.empty())
    throw ParseError(filename, 1, "no module definition found");
  return Elaborator(modules, options, filename).run();
}

void write_verilog_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_verilog(netlist);
  if (!out) throw Error("failed writing '" + path + "'");
}

Netlist read_verilog_file(const std::string& path) {
  std::string text;
  if (!util::read_file_to_string(path, &text))
    throw Error("cannot open '" + path + "'");
  return read_verilog(text, path);
}

}  // namespace gfre::nl
