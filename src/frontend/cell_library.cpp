#include "frontend/cell_library.hpp"

#include <array>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace gfre::frontend {

int LibCell::find_input(const std::string& pin) const {
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (inputs[i] == pin) return static_cast<int>(i);
  return -1;
}

const LibCell* CellLibrary::find(const std::string& cell_name) const {
  for (const LibCell& c : cells_)
    if (c.name == cell_name) return &c;
  return nullptr;
}

void CellLibrary::add(LibCell cell) {
  if (find(cell.name))
    throw InvalidArgument("cell library already defines '" + cell.name + "'");
  cells_.push_back(std::move(cell));
}

namespace {

// ---------------------------------------------------------------------------
// Function expression parsing
//
// Parsed in two stages: a named AST (pins and cell calls by name) built
// from the attribute string, then resolution — calls inlined with cycle
// detection, pin names bound to indices.
// ---------------------------------------------------------------------------

struct NamedExpr {
  enum class Kind { Gate, Ref, Call };
  Kind kind = Kind::Gate;
  nl::CellType type = nl::CellType::Const0;  ///< Gate
  std::string name;  ///< Ref: pin name; Call: cell name
  std::vector<NamedExpr> operands;

  static NamedExpr gate(nl::CellType type, std::vector<NamedExpr> operands) {
    NamedExpr e;
    e.type = type;
    e.operands = std::move(operands);
    return e;
  }
};

class FunctionParser {
 public:
  FunctionParser(const std::string& text, const Loc& site)
      : lexer_(text, site.file_name(), LexSyntax{}), site_(site) {
    // The function string lives inside an attribute on `site_`'s line; the
    // inner lexer restarts line numbering, so diagnostics are pinned to
    // the attribute's own location instead.
  }

  NamedExpr parse() {
    NamedExpr e = ternary();
    if (lexer_.peek().kind != Token::Kind::End)
      fail("unexpected '" + lexer_.peek().text + "' in cell function");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { fail_at(site_, msg); }

  NamedExpr ternary() {
    NamedExpr cond = or_expr();
    if (!lexer_.accept_punct('?')) return cond;
    NamedExpr d1 = ternary();
    if (!lexer_.accept_punct(':')) fail("expected ':' in cell function");
    NamedExpr d0 = ternary();
    return NamedExpr::gate(nl::CellType::Mux,
                           {std::move(cond), std::move(d0), std::move(d1)});
  }

  NamedExpr or_expr() {
    NamedExpr e = xor_expr();
    while (lexer_.accept_punct('|') || lexer_.accept_punct('+')) {
      NamedExpr rhs = xor_expr();
      e = NamedExpr::gate(nl::CellType::Or, {std::move(e), std::move(rhs)});
    }
    return e;
  }

  NamedExpr xor_expr() {
    NamedExpr e = and_expr();
    while (lexer_.accept_punct('^')) {
      NamedExpr rhs = and_expr();
      e = NamedExpr::gate(nl::CellType::Xor, {std::move(e), std::move(rhs)});
    }
    return e;
  }

  NamedExpr and_expr() {
    NamedExpr e = unary();
    while (lexer_.accept_punct('&') || lexer_.accept_punct('*')) {
      NamedExpr rhs = unary();
      e = NamedExpr::gate(nl::CellType::And, {std::move(e), std::move(rhs)});
    }
    return e;
  }

  NamedExpr unary() {
    if (lexer_.accept_punct('!') || lexer_.accept_punct('~'))
      return NamedExpr::gate(nl::CellType::Inv, {unary()});
    return primary();
  }

  NamedExpr primary() {
    const Token& t = lexer_.peek();
    if (t.is_punct('(')) {
      lexer_.next();
      NamedExpr e = ternary();
      if (!lexer_.accept_punct(')')) fail("expected ')' in cell function");
      return e;
    }
    if (t.kind == Token::Kind::Number) {
      Token num = lexer_.next();
      if (num.value > 1) fail("only 0/1 constants allowed in cell functions");
      return NamedExpr::gate(
          num.value ? nl::CellType::Const1 : nl::CellType::Const0, {});
    }
    if (t.kind == Token::Kind::Ident) {
      Token id = lexer_.next();
      NamedExpr e;
      if (lexer_.accept_punct('(')) {
        e.kind = NamedExpr::Kind::Call;
        e.name = id.text;
        if (!lexer_.accept_punct(')')) {
          for (;;) {
            e.operands.push_back(ternary());
            if (lexer_.accept_punct(')')) break;
            if (!lexer_.accept_punct(','))
              fail("expected ',' or ')' in cell call");
          }
        }
        return e;
      }
      e.kind = NamedExpr::Kind::Ref;
      e.name = id.text;
      return e;
    }
    fail("expected a pin, constant or '(' in cell function, got '" + t.text +
         "'");
  }

  mutable Lexer lexer_;
  Loc site_;
};

/// Per-cell parse state before resolution.
struct RawCell {
  LibCell cell;          ///< function not yet filled
  NamedExpr function;    ///< named form
  Loc loc;
  bool resolved = false;
  bool resolving = false;
};

class Resolver {
 public:
  explicit Resolver(std::vector<RawCell>& raw) : raw_(raw) {
    for (std::size_t i = 0; i < raw.size(); ++i)
      index_.emplace(raw[i].cell.name, i);
  }

  void resolve_all() {
    for (RawCell& rc : raw_) resolve(rc);
  }

 private:
  void resolve(RawCell& rc) {
    if (rc.resolved) return;
    if (rc.resolving)
      fail_at(rc.loc, "recursive cell definition '" + rc.cell.name + "'");
    rc.resolving = true;
    rc.cell.function = bind(rc.function, rc);
    rc.resolving = false;
    rc.resolved = true;
  }

  BoolExpr bind(const NamedExpr& e, RawCell& context) {
    switch (e.kind) {
      case NamedExpr::Kind::Gate: {
        BoolExpr out = BoolExpr::gate(e.type, {});
        out.operands.reserve(e.operands.size());
        for (const NamedExpr& op : e.operands)
          out.operands.push_back(bind(op, context));
        return out;
      }
      case NamedExpr::Kind::Ref: {
        int pin = context.cell.find_input(e.name);
        if (pin < 0)
          fail_at(context.loc, "cell '" + context.cell.name +
                                   "' function references unknown pin '" +
                                   e.name + "'");
        return BoolExpr::ref(static_cast<unsigned>(pin));
      }
      case NamedExpr::Kind::Call: {
        auto it = index_.find(e.name);
        if (it == index_.end())
          fail_at(context.loc, "cell '" + context.cell.name +
                                   "' function calls unknown cell '" + e.name +
                                   "'");
        RawCell& callee = raw_[it->second];
        if (callee.resolving || &callee == &context)
          fail_at(context.loc, "recursive cell definition '" +
                                   context.cell.name + "' (via '" + e.name +
                                   "')");
        resolve(callee);
        if (callee.cell.inputs.size() != e.operands.size())
          fail_at(context.loc,
                  "cell call '" + e.name + "' expects " +
                      std::to_string(callee.cell.inputs.size()) +
                      " arguments, got " + std::to_string(e.operands.size()));
        std::vector<BoolExpr> actuals;
        actuals.reserve(e.operands.size());
        for (const NamedExpr& op : e.operands)
          actuals.push_back(bind(op, context));
        return substitute(callee.cell.function, actuals);
      }
    }
    GFRE_ASSERT(false, "unreachable NamedExpr kind");
    return {};
  }

  /// Replaces each Ref pin i in `body` with actuals[i].
  static BoolExpr substitute(const BoolExpr& body,
                             const std::vector<BoolExpr>& actuals) {
    if (body.kind == BoolExpr::Kind::Ref) return actuals[body.pin];
    BoolExpr out = BoolExpr::gate(body.type, {});
    out.operands.reserve(body.operands.size());
    for (const BoolExpr& op : body.operands)
      out.operands.push_back(substitute(op, actuals));
    return out;
  }

  std::vector<RawCell>& raw_;
  std::unordered_map<std::string, std::size_t> index_;
};

// ---------------------------------------------------------------------------
// Builtin matching
// ---------------------------------------------------------------------------

/// Evaluates `expr` with `values[i]` as the value of pin i.
bool eval_bool_expr(const BoolExpr& expr, const std::vector<bool>& values) {
  if (expr.kind == BoolExpr::Kind::Ref) return values[expr.pin];
  std::array<bool, 3> in{};  // the function grammar's widest gate is Mux
  GFRE_ASSERT(expr.operands.size() <= in.size(), "BoolExpr gate too wide");
  for (std::size_t i = 0; i < expr.operands.size(); ++i)
    in[i] = eval_bool_expr(expr.operands[i], values);
  return nl::eval_cell(expr.type,
                       std::span<const bool>(in.data(), expr.operands.size()));
}

/// Truth-table matches a cell's function against the builtin CellType set
/// (pin order preserved), so AOI22/OAI21/MUX2/XNOR3-style cells land on
/// single gates however their function was written.  nullopt when no
/// builtin of that arity has the identical table (or the cell has > 8
/// pins).
std::optional<nl::CellType> match_builtin_cell(const LibCell& cell) {
  const std::size_t n = cell.inputs.size();
  if (n > 8) return std::nullopt;
  // The cell's truth table, LSB-first over pin values.
  const std::size_t rows = std::size_t{1} << n;
  std::vector<bool> table(rows);
  std::vector<bool> values(n);
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t i = 0; i < n; ++i) values[i] = (row >> i) & 1;
    table[row] = eval_bool_expr(cell.function, values);
  }
  std::array<bool, 8> pins{};
  for (nl::CellType type : nl::all_cell_types()) {
    if (!nl::arity_ok(type, n)) continue;
    bool match = true;
    for (std::size_t row = 0; row < rows && match; ++row) {
      for (std::size_t i = 0; i < n; ++i) pins[i] = (row >> i) & 1;
      match = nl::eval_cell(type, std::span<const bool>(pins.data(), n)) ==
              table[row];
    }
    if (match) return type;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Library file parsing (Liberty-flavored group/attribute syntax)
// ---------------------------------------------------------------------------

class LibraryParser {
 public:
  LibraryParser(const std::string& text, const std::string& filename)
      : lexer_(text, filename, LexSyntax{.slash_comments = true}) {}

  CellLibrary parse() {
    Token kw = lexer_.expect_ident("'library'");
    if (kw.text != "library") fail_at(kw.loc, "expected 'library ( name )'");
    lexer_.expect_punct('(');
    Token name = lexer_.expect_ident("library name");
    lexer_.expect_punct(')');
    lexer_.expect_punct('{');
    std::vector<RawCell> raw;
    std::unordered_set<std::string> names;
    while (!lexer_.accept_punct('}')) {
      Token item = lexer_.expect_ident("'cell' or '}'");
      if (item.text == "cell") {
        RawCell rc = parse_cell(item.loc);
        if (!names.insert(rc.cell.name).second)
          fail_at(rc.loc, "cell '" + rc.cell.name + "' defined twice");
        raw.push_back(std::move(rc));
      } else {
        skip_group_or_attribute(item);
      }
    }
    if (lexer_.peek().kind != Token::Kind::End)
      fail_at(lexer_.peek().loc, "trailing text after library group");
    Resolver(raw).resolve_all();
    CellLibrary lib(name.text);
    for (RawCell& rc : raw) {
      rc.cell.builtin = match_builtin_cell(rc.cell);
      lib.add(std::move(rc.cell));
    }
    return lib;
  }

 private:
  RawCell parse_cell(const Loc& loc) {
    lexer_.expect_punct('(');
    Token name = lexer_.expect_ident("cell name");
    lexer_.expect_punct(')');
    lexer_.expect_punct('{');
    RawCell rc;
    rc.cell.name = name.text;
    rc.loc = name.loc;
    bool have_function = false;
    while (!lexer_.accept_punct('}')) {
      Token item = lexer_.expect_ident("'pin' or '}'");
      if (item.text != "pin") {
        skip_group_or_attribute(item);
        continue;
      }
      lexer_.expect_punct('(');
      Token pin = lexer_.expect_ident("pin name");
      lexer_.expect_punct(')');
      lexer_.expect_punct('{');
      bool is_output = false;
      bool have_direction = false;
      std::optional<std::string> function;
      Loc function_loc;
      while (!lexer_.accept_punct('}')) {
        Token attr = lexer_.expect_ident("pin attribute");
        lexer_.expect_punct(':');
        if (attr.text == "direction") {
          Token dir = lexer_.expect_ident("pin direction");
          if (dir.text == "output") is_output = true;
          else if (dir.text == "input") is_output = false;
          else fail_at(dir.loc, "pin direction must be input or output");
          have_direction = true;
        } else if (attr.text == "function") {
          const Token& v = lexer_.peek();
          if (v.kind != Token::Kind::String)
            fail_at(v.loc, "function attribute must be a quoted string");
          function = v.text;
          function_loc = v.loc;
          lexer_.next();
        } else {
          skip_attribute_value();
        }
        lexer_.expect_punct(';');
      }
      if (!have_direction)
        fail_at(pin.loc, "pin '" + pin.text + "' has no direction");
      if (is_output) {
        if (have_function)
          fail_at(pin.loc,
                  "cell '" + rc.cell.name + "' has multiple output pins");
        if (!function)
          fail_at(pin.loc, "output pin '" + pin.text + "' has no function");
        rc.cell.output = pin.text;
        rc.function = FunctionParser(*function, function_loc).parse();
        have_function = true;
      } else {
        if (rc.cell.find_input(pin.text) >= 0)
          fail_at(pin.loc, "pin '" + pin.text + "' declared twice");
        rc.cell.inputs.push_back(pin.text);
      }
    }
    if (!have_function)
      fail_at(loc, "cell '" + rc.cell.name + "' has no output pin");
    if (rc.cell.inputs.size() > 10)
      fail_at(loc, "cell '" + rc.cell.name + "' has too many input pins");
    return rc;
  }

  /// Skips an unrecognized `name : value ;` attribute or `name (...) {...}`
  /// group so real .lib fragments (area, timing) load.
  void skip_group_or_attribute(const Token& name) {
    if (lexer_.accept_punct(':')) {
      skip_attribute_value();
      lexer_.expect_punct(';');
      return;
    }
    if (lexer_.peek().is_punct('(')) {
      int depth = 0;
      do {
        const Token& t = lexer_.peek();
        if (t.kind == Token::Kind::End)
          fail_at(name.loc, "unterminated group");
        if (t.is_punct('(')) ++depth;
        if (t.is_punct(')')) --depth;
        lexer_.next();
      } while (depth > 0);
      if (lexer_.accept_punct(';')) return;
      if (!lexer_.peek().is_punct('{'))
        fail_at(name.loc, "expected '{' or ';' after group header");
    }
    if (lexer_.accept_punct('{')) {
      int depth = 1;
      while (depth > 0) {
        const Token& t = lexer_.peek();
        if (t.kind == Token::Kind::End)
          fail_at(name.loc, "unterminated group");
        if (t.is_punct('{')) ++depth;
        if (t.is_punct('}')) --depth;
        lexer_.next();
      }
      return;
    }
    fail_at(name.loc, "expected attribute or group after '" + name.text + "'");
  }

  void skip_attribute_value() {
    const Token& t = lexer_.peek();
    if (t.kind == Token::Kind::End || t.is_punct(';'))
      fail_at(t.loc, "missing attribute value");
    while (!lexer_.peek().is_punct(';') &&
           lexer_.peek().kind != Token::Kind::End)
      lexer_.next();
  }

  Lexer lexer_;
};

}  // namespace

CellLibrary parse_cell_library(const std::string& text,
                               const std::string& filename) {
  return LibraryParser(text, filename).parse();
}

CellLibrary load_cell_library_file(const std::string& path) {
  std::string text;
  if (!util::read_file_to_string(path, &text))
    throw Error("cannot open cell library '" + path + "'");
  return parse_cell_library(text, path);
}

}  // namespace gfre::frontend
