#include "frontend/source.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "util/bytes.hpp"

namespace gfre::frontend {

const std::string& Loc::file_name() const {
  static const std::string kInput = "<input>";
  return file ? *file : kInput;
}

void fail_at(const Loc& loc, const std::string& msg) {
  const std::string& file = loc.file_name();
  if (loc.column > 0) throw ParseError(file, loc.line, loc.column, msg);
  throw ParseError(file, loc.line, msg);
}

// ---------------------------------------------------------------------------
// LineScanner
// ---------------------------------------------------------------------------

LineScanner::LineScanner(std::string_view text, std::string file,
                         LineSyntax syntax)
    : text_(text), file_(std::move(file)), syntax_(syntax) {}

namespace {

constexpr bool is_blank(char c) { return c == ' ' || c == '\t'; }
constexpr bool is_trailing_space(char c) { return is_blank(c) || c == '\r'; }

void rstrip(std::string& s) {
  while (!s.empty() && is_trailing_space(s.back())) s.pop_back();
}

}  // namespace

bool LineScanner::plain_line(std::string_view* trimmed) {
  if (in_block_comment_) return false;
  const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
  std::string_view line = text_.substr(pos_, end - pos_);
  const bool slashes = syntax_.slash_comments || syntax_.block_comments;
  for (char c : line)
    if ((c == '#' && syntax_.hash_comments) || (c == '/' && slashes))
      return false;
  while (!line.empty() && is_trailing_space(line.back())) line.remove_suffix(1);
  if (syntax_.backslash_continuation && !line.empty() && line.back() == '\\')
    return false;
  while (!line.empty() && is_blank(line.front())) line.remove_prefix(1);
  pos_ = end;
  if (pos_ < text_.size()) {  // consume the '\n'
    ++pos_;
    ++line_;
  }
  *trimmed = line;
  return true;
}

void LineScanner::splice_line() {
  std::string& out = buffer_;
  out.clear();
  bool more = true;  // keep appending physical lines (continuation)
  while (more) {
    more = false;
    // One physical line into `out`, honoring comments.
    while (pos_ < text_.size() && text_[pos_] != '\n') {
      char c = text_[pos_];
      if (in_block_comment_) {
        if (c == '*' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
          in_block_comment_ = false;
          pos_ += 2;
          continue;
        }
        ++pos_;
        continue;
      }
      if (syntax_.hash_comments && c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        break;
      }
      if (syntax_.slash_comments && c == '/' && pos_ + 1 < text_.size() &&
          text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        break;
      }
      if (syntax_.block_comments && c == '/' && pos_ + 1 < text_.size() &&
          text_[pos_ + 1] == '*') {
        in_block_comment_ = true;
        block_comment_line_ = line_;
        pos_ += 2;
        continue;
      }
      out += c;
      ++pos_;
    }
    if (pos_ < text_.size()) {  // consume the '\n'
      ++pos_;
      ++line_;
    }
    rstrip(out);
    if (syntax_.backslash_continuation && !out.empty() &&
        out.back() == '\\' && (pos_ < text_.size() || in_block_comment_)) {
      out.pop_back();
      rstrip(out);
      out += ' ';
      more = true;
    } else if (syntax_.backslash_continuation && !out.empty() &&
               out.back() == '\\') {
      out.pop_back();  // trailing continuation at EOF: drop it
      rstrip(out);
    }
    if (more && pos_ >= text_.size() && !in_block_comment_) more = false;
  }
}

std::optional<LogicalLine> LineScanner::next() {
  while (pos_ < text_.size() || in_block_comment_) {
    if (in_block_comment_ && pos_ >= text_.size()) break;
    const int start_line = line_;
    std::string_view line;
    if (!plain_line(&line)) {
      splice_line();
      line = buffer_;
      while (!line.empty() && is_blank(line.front())) line.remove_prefix(1);
    }
    if (line.empty()) continue;
    return LogicalLine{line, start_line};
  }
  if (in_block_comment_)
    throw ParseError(file_, block_comment_line_,
                     "unterminated block comment");
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

IncludeResolver filesystem_include_resolver() {
  return [](const std::string& target, const Loc& site,
            std::string* resolved) -> std::optional<std::string> {
    namespace fs = std::filesystem;
    fs::path p(target);
    if (p.is_relative()) {
      fs::path base = fs::path(site.file_name()).parent_path();
      p = base / p;
    }
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(p, ec);
    *resolved = ec ? p.string() : canon.string();
    std::string text;
    if (!util::read_file_to_string(p.string(), &text)) return std::nullopt;
    return text;
  };
}

Lexer::Lexer(std::string text, std::string file, LexSyntax syntax,
             IncludeResolver resolver)
    : syntax_(syntax), resolver_(std::move(resolver)) {
  Frame f;
  f.text = std::move(text);
  f.file = std::make_shared<const std::string>(std::move(file));
  frames_.push_back(std::move(f));
  tok_ = lex_token();
}

Loc Lexer::here() const {
  const Frame& f = frames_.back();
  return Loc{f.file, f.line, f.col};
}

void Lexer::advance() {
  Frame& f = top();
  if (f.pos >= f.text.size()) return;
  if (f.text[f.pos] == '\n') {
    ++f.line;
    f.col = 1;
  } else {
    ++f.col;
  }
  ++f.pos;
}

void Lexer::skip_trivia() {
  for (;;) {
    if (frame_eof()) {
      if (frames_.size() > 1) {
        frames_.pop_back();
        continue;
      }
      return;
    }
    char c = cur();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (syntax_.hash_comments && c == '#') {
      while (!frame_eof() && cur() != '\n') advance();
      continue;
    }
    if (syntax_.slash_comments && c == '/' && top().pos + 1 < top().text.size()) {
      char n = top().text[top().pos + 1];
      if (n == '/') {
        while (!frame_eof() && cur() != '\n') advance();
        continue;
      }
      if (n == '*') {
        Loc open = here();
        advance();
        advance();
        bool closed = false;
        while (!frame_eof()) {
          if (cur() == '*' && top().pos + 1 < top().text.size() &&
              top().text[top().pos + 1] == '/') {
            advance();
            advance();
            closed = true;
            break;
          }
          advance();
        }
        if (!closed) fail_at(open, "unterminated block comment");
        continue;
      }
    }
    if (syntax_.directives && c == '`') {
      handle_directive();
      continue;
    }
    return;
  }
}

void Lexer::handle_directive() {
  Loc site = here();
  advance();  // backtick
  std::string name;
  while (!frame_eof() && (std::isalnum(static_cast<unsigned char>(cur())) ||
                          cur() == '_'))
    name += cur(), advance();
  if (name != "include")
    fail_at(site, "unsupported compiler directive '`" + name + "'");
  // Expect a quoted filename.
  while (!frame_eof() && (cur() == ' ' || cur() == '\t')) advance();
  if (frame_eof() || cur() != '"')
    fail_at(site, "`include expects a quoted filename");
  advance();
  std::string target;
  while (!frame_eof() && cur() != '"' && cur() != '\n')
    target += cur(), advance();
  if (frame_eof() || cur() != '"')
    fail_at(site, "unterminated `include filename");
  advance();
  if (!resolver_)
    fail_at(site, "`include is not available in this context");
  if (frames_.size() >= 16)
    fail_at(site, "`include nesting too deep (limit 16)");
  std::string resolved;
  auto text = resolver_(target, site, &resolved);
  if (!text)
    fail_at(site, "cannot open `include file \"" + target + "\"");
  for (const Frame& f : frames_)
    if (*f.file == resolved)
      fail_at(site, "`include cycle through \"" + target + "\"");
  Frame f;
  f.text = std::move(*text);
  f.file = std::make_shared<const std::string>(std::move(resolved));
  frames_.push_back(std::move(f));
}

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$' ||
         c == '.';
}

}  // namespace

Token Lexer::lex_token() {
  skip_trivia();
  Token t;
  t.loc = here();
  if (frame_eof()) {
    t.kind = Token::Kind::End;
    t.text = "<end of input>";
    return t;
  }
  char c = cur();
  if (syntax_.escaped_idents && c == '\\') {
    advance();
    std::string name;
    while (!frame_eof() && cur() != ' ' && cur() != '\t' && cur() != '\r' &&
           cur() != '\n')
      name += cur(), advance();
    if (name.empty()) fail_at(t.loc, "empty escaped identifier");
    t.kind = Token::Kind::Ident;
    t.text = std::move(name);
    t.escaped = true;
    return t;
  }
  if (ident_start(c)) {
    std::string name;
    while (!frame_eof() && ident_char(cur())) name += cur(), advance();
    t.kind = Token::Kind::Ident;
    t.text = std::move(name);
    return t;
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    std::string digits;
    while (!frame_eof() && std::isdigit(static_cast<unsigned char>(cur())))
      digits += cur(), advance();
    std::uint64_t value = 0;
    for (char d : digits) value = value * 10 + static_cast<unsigned>(d - '0');
    t.kind = Token::Kind::Number;
    t.text = digits;
    t.value = value;
    t.width = 0;
    if (syntax_.verilog_numbers && !frame_eof() && cur() == '\'') {
      // Sized literal: <width>'<base><digits>
      advance();
      if (frame_eof()) fail_at(t.loc, "truncated sized literal");
      char base = static_cast<char>(
          std::tolower(static_cast<unsigned char>(cur())));
      advance();
      unsigned radix = 0;
      if (base == 'b') radix = 2;
      else if (base == 'o') radix = 8;
      else if (base == 'd') radix = 10;
      else if (base == 'h') radix = 16;
      else fail_at(t.loc, std::string("bad literal base '") + base + "'");
      std::string body;
      std::uint64_t v = 0;
      while (!frame_eof() &&
             (std::isalnum(static_cast<unsigned char>(cur())) || cur() == '_')) {
        char d = static_cast<char>(
            std::tolower(static_cast<unsigned char>(cur())));
        advance();
        if (d == '_') continue;
        unsigned digit;
        if (d >= '0' && d <= '9') digit = static_cast<unsigned>(d - '0');
        else if (d >= 'a' && d <= 'f') digit = static_cast<unsigned>(d - 'a') + 10;
        else fail_at(t.loc, std::string("bad digit '") + d + "' in literal");
        if (digit >= radix)
          fail_at(t.loc, std::string("digit '") + d + "' out of range for base");
        v = v * radix + digit;
        body += d;
      }
      if (body.empty()) fail_at(t.loc, "sized literal has no digits");
      t.width = static_cast<unsigned>(value);
      if (t.width == 0 || t.width > 64)
        fail_at(t.loc, "unsupported literal width " + digits);
      t.value = v;
      t.text = digits + "'" + base + body;
    }
    return t;
  }
  if (c == '"') {
    advance();
    std::string s;
    while (!frame_eof() && cur() != '"' && cur() != '\n') s += cur(), advance();
    if (frame_eof() || cur() != '"') fail_at(t.loc, "unterminated string");
    advance();
    t.kind = Token::Kind::String;
    t.text = std::move(s);
    return t;
  }
  t.kind = Token::Kind::Punct;
  t.text = std::string(1, c);
  advance();
  return t;
}

Token Lexer::next() {
  Token prev = std::move(tok_);
  tok_ = lex_token();
  return prev;
}

Token Lexer::expect_ident(const char* what) {
  if (tok_.kind != Token::Kind::Ident)
    fail(std::string("expected ") + what + ", got '" + tok_.text + "'");
  return next();
}

Token Lexer::expect_punct(char c) {
  if (!tok_.is_punct(c))
    fail(std::string("expected '") + c + "', got '" + tok_.text + "'");
  return next();
}

bool Lexer::accept_punct(char c) {
  if (!tok_.is_punct(c)) return false;
  next();
  return true;
}

bool Lexer::accept_ident(std::string_view s) {
  if (!tok_.is_ident(s)) return false;
  next();
  return true;
}

}  // namespace gfre::frontend
