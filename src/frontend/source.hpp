// Shared lexing/diagnostics substrate for every netlist frontend.
//
// The three dialect parsers (.eqn, BLIF, Verilog) and the cell-library
// reader all sit on the primitives here, so source bookkeeping is written
// exactly once:
//  - Loc (file/line/column) and fail_at() -> ParseError with full position
//  - CRLF and trailing-whitespace transparency
//  - comment stripping: '#' line comments, '//' line comments and
//    '/* ... */' block comments, selected per dialect but implemented once
//  - escaped Verilog identifiers ("\foo[0] ": backslash to whitespace)
//  - `include expansion with cycle detection (token lexer only)
//
// Two access shapes are provided: LineScanner for the line-oriented
// dialects (.eqn, BLIF) and Lexer for the token-oriented ones (Verilog,
// cell libraries).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace gfre::frontend {

/// A file name stored once and shared by every Loc in that file, so that
/// copying a Loc (or a Token) never allocates.
using SourceName = std::shared_ptr<const std::string>;

/// A source position.  `column` is 1-based; 0 means line-granular.
struct Loc {
  SourceName file;  ///< null means "<input>"
  int line = 1;
  int column = 0;

  Loc() = default;
  Loc(SourceName file, int line, int column)
      : file(std::move(file)), line(line), column(column) {}
  /// Stores `file` once; copies of this Loc share it.
  Loc(std::string_view file, int line, int column)
      : Loc(std::make_shared<const std::string>(file), line, column) {}

  const std::string& file_name() const;
};

/// Throws ParseError carrying the position.
[[noreturn]] void fail_at(const Loc& loc, const std::string& msg);

// ---------------------------------------------------------------------------
// LineScanner: logical lines for .eqn / BLIF
// ---------------------------------------------------------------------------

/// Comment/continuation policy for a line-oriented dialect.
struct LineSyntax {
  bool hash_comments = true;        ///< '#' to end of line
  bool slash_comments = false;      ///< '//' to end of line
  bool block_comments = false;      ///< '/* ... */' (may span lines)
  bool backslash_continuation = false;  ///< trailing '\' joins lines
};

/// One logical line: comments stripped, CR/trailing whitespace removed,
/// continuations joined.  `line` is the physical line the logical line
/// started on.  `text` views the scanner's input, or the scanner's own
/// buffer when a comment or a continuation splices the line, so it is
/// valid only until the next call to LineScanner::next.
struct LogicalLine {
  std::string_view text;
  int line = 0;
};

/// Splits text into logical lines under a dialect's LineSyntax.  Blank
/// (post-strip) lines are skipped.  A physical line with no comment
/// start and no continuation is returned as a view into `text`, without
/// copying it; `text` must outlive the scanner.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::string file, LineSyntax syntax);

  /// Next non-empty logical line, or nullopt at end of input.
  /// Throws ParseError on an unterminated block comment.
  std::optional<LogicalLine> next();

 private:
  /// The physical line at pos_, trimmed, when no comment or continuation
  /// can touch it: consumes it and returns true.
  bool plain_line(std::string_view* trimmed);
  /// The general path: one logical line into buffer_, honoring comments
  /// and continuations.
  void splice_line();

  std::string_view text_;
  std::string buffer_;  ///< spliced lines, reused across calls
  std::string file_;
  LineSyntax syntax_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool in_block_comment_ = false;
  int block_comment_line_ = 0;
};

// ---------------------------------------------------------------------------
// Lexer: tokens for Verilog / cell libraries
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind {
    Ident,   ///< identifier or keyword (text holds the name)
    Number,  ///< integer literal; value/width filled in
    String,  ///< double-quoted string (text holds the unquoted content)
    Punct,   ///< single punctuation character in text[0]
    End,     ///< end of input
  };

  Kind kind = Kind::End;
  std::string text;
  std::uint64_t value = 0;  ///< Number: numeric value
  unsigned width = 0;       ///< Number: declared width (0 = unsized)
  bool escaped = false;     ///< Ident: came from a '\' escaped identifier
  Loc loc;

  bool is_punct(char c) const {
    return kind == Kind::Punct && text.size() == 1 && text[0] == c;
  }
  bool is_ident(std::string_view s) const {
    return kind == Kind::Ident && text == s;
  }
};

/// Resolves an `include target.  Returns the file's text, and fills
/// `resolved` with the canonical path used for cycle detection.  Returns
/// nullopt when the file cannot be found/read.
using IncludeResolver = std::function<std::optional<std::string>(
    const std::string& target, const Loc& site, std::string* resolved)>;

/// Filesystem resolver: `target` relative to the including file's
/// directory (absolute paths pass through).
IncludeResolver filesystem_include_resolver();

/// Token policy knobs per dialect.
struct LexSyntax {
  bool slash_comments = true;   ///< '//' and '/* */'
  bool hash_comments = false;   ///< '#' to end of line
  bool verilog_numbers = false; ///< sized literals: 4'b1010, 8'hff, 1'd1
  bool escaped_idents = false;  ///< '\name ' escaped identifiers
  bool directives = false;      ///< backtick directives (`include)
};

/// Streaming tokenizer with position tracking and (optionally) `include
/// expansion.  Include cycles and unreadable files are diagnosed with the
/// location of the `include directive.
class Lexer {
 public:
  Lexer(std::string text, std::string file, LexSyntax syntax,
        IncludeResolver resolver = nullptr);

  /// The current token (initially the first one).
  const Token& peek() const { return tok_; }

  /// Advances and returns the previous token.
  Token next();

  // -- Convenience expect/accept helpers ---------------------------------
  Token expect_ident(const char* what);
  Token expect_punct(char c);
  bool accept_punct(char c);
  bool accept_ident(std::string_view s);

  [[noreturn]] void fail(const std::string& msg) const { fail_at(tok_.loc, msg); }

 private:
  struct Frame {
    std::string text;
    /// Diagnostic name; for an `include frame, its canonical path (the
    /// cycle detection key).
    SourceName file;
    std::size_t pos = 0;
    int line = 1;
    int col = 1;
  };

  Frame& top() { return frames_.back(); }
  bool frame_eof() const { return frames_.back().pos >= frames_.back().text.size(); }
  char cur() const { return frames_.back().text[frames_.back().pos]; }
  void advance();
  void skip_trivia();          ///< whitespace, comments, frame pops
  void handle_directive();     ///< backtick directives (`include ...)
  Token lex_token();           ///< one token from the current frame
  Loc here() const;

  LexSyntax syntax_;
  IncludeResolver resolver_;
  std::vector<Frame> frames_;
  Token tok_;
};

}  // namespace gfre::frontend
