#include "src/xquery/parser.h"

#include <functional>

#include "src/base/guard.h"
#include "src/base/strutil.h"
#include "src/xquery/lexer.h"

namespace xqc {
namespace {

const char* const kKindTestNames[] = {
    "node",         "text",    "comment", "processing-instruction",
    "document-node", "element", "attribute", "item", "empty-sequence"};

bool IsKindTestName(const std::string& n) {
  for (const char* k : kKindTestNames) {
    if (n == k) return true;
  }
  return false;
}

// Maximum expression/constructor nesting depth. The parser is recursive-
// descent, so unbounded nesting (100k of "((((...") would smash the native
// stack; anything deeper than this is rejected with XPST0003. The limit
// clears legitimate queries by a wide margin (the deepest query in the
// test corpus nests ~500 levels) while keeping worst-case stack use a few
// MB even under sanitizer-sized frames.
constexpr int kMaxNestingDepth = 1024;

class Parser {
 public:
  explicit Parser(std::string_view text, QueryGuard* guard = nullptr)
      : lex_(text), guard_(guard) {}

  Result<Query> ParseQuery() {
    XQC_RETURN_IF_ERROR(Init());
    Query q;
    XQC_RETURN_IF_ERROR(ParseProlog(&q));
    XQC_ASSIGN_OR_RETURN(q.body, ParseExpr());
    if (cur_.kind != TokKind::kEOF) {
      return Err("unexpected trailing input");
    }
    return q;
  }

  Result<ExprPtr> ParseSingleExpr() {
    XQC_RETURN_IF_ERROR(Init());
    XQC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (cur_.kind != TokKind::kEOF) return Err("unexpected trailing input");
    return e;
  }

  Result<SequenceType> ParseSequenceTypeOnly() {
    XQC_RETURN_IF_ERROR(Init());
    XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
    if (cur_.kind != TokKind::kEOF) return Err("unexpected trailing input");
    return t;
  }

 private:
  // ---- token plumbing -----------------------------------------------------

  // The peek token's scan error must be reported lazily: a direct
  // constructor's enclosed expression legitimately ends right before raw
  // XML characters that do not tokenize (e.g. the closing quote of an
  // attribute value template), and the parser never consumes past them.
  void ScanPeek() {
    peek_pos_ = lex_.pos();
    Result<Token> r = lex_.Next();
    if (r.ok()) {
      peek_ = r.take();
    } else {
      peek_ = Token{};
      peek_.kind = TokKind::kError;
      peek_status_ = r.status();
    }
  }

  Status Init() {
    XQC_ASSIGN_OR_RETURN(cur_, lex_.Next());
    ScanPeek();
    return Status::OK();
  }

  Status Advance() {
    if (guard_ != nullptr) XQC_RETURN_IF_ERROR(guard_->Check());
    cur_ = std::move(peek_);
    if (cur_.kind == TokKind::kError) return peek_status_;
    ScanPeek();
    return Status::OK();
  }

  bool Is(TokKind k) const { return cur_.kind == k; }
  bool IsName(const char* n) const {
    return cur_.kind == TokKind::kName && cur_.text == n;
  }
  bool PeekIs(TokKind k) const { return peek_.kind == k; }
  bool PeekIsName(const char* n) const {
    return peek_.kind == TokKind::kName && peek_.text == n;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError("XQuery parse error at line " +
                              std::to_string(lex_.LineOf(cur_.offset)) + ": " +
                              msg);
  }

  Status Expect(TokKind k, const char* what) {
    if (!Is(k)) return Err(std::string("expected ") + what);
    return Advance();
  }

  Status ExpectName(const char* n) {
    if (!IsName(n)) return Err(std::string("expected '") + n + "'");
    return Advance();
  }

  Result<Symbol> ExpectQName(const char* what) {
    if (!Is(TokKind::kName)) return Err(std::string("expected ") + what);
    Symbol s(cur_.text);
    XQC_RETURN_IF_ERROR(Advance());
    return s;
  }

  // ---- prolog -------------------------------------------------------------

  Status ParseProlog(Query* q) {
    while (IsName("declare") || IsName("import")) {
      if (IsName("import")) {
        // import schema/module ...: skip to ';'
        while (!Is(TokKind::kSemicolon) && !Is(TokKind::kEOF)) {
          XQC_RETURN_IF_ERROR(Advance());
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
        continue;
      }
      if (PeekIsName("function")) {
        XQC_RETURN_IF_ERROR(Advance());  // declare
        XQC_RETURN_IF_ERROR(Advance());  // function
        FunctionDecl fd;
        XQC_ASSIGN_OR_RETURN(fd.name, ExpectQName("function name"));
        XQC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
        if (!Is(TokKind::kRParen)) {
          while (true) {
            XQC_RETURN_IF_ERROR(Expect(TokKind::kDollar, "'$'"));
            XQC_ASSIGN_OR_RETURN(Symbol pname, ExpectQName("parameter name"));
            std::optional<SequenceType> ptype;
            if (IsName("as")) {
              XQC_RETURN_IF_ERROR(Advance());
              XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
              ptype = t;
            }
            fd.params.emplace_back(pname, ptype);
            if (!Is(TokKind::kComma)) break;
            XQC_RETURN_IF_ERROR(Advance());
          }
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        if (IsName("as")) {
          XQC_RETURN_IF_ERROR(Advance());
          XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
          fd.return_type = t;
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
        XQC_ASSIGN_OR_RETURN(fd.body, ParseExpr());
        XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
        XQC_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
        q->functions.push_back(std::move(fd));
        continue;
      }
      if (PeekIsName("variable")) {
        XQC_RETURN_IF_ERROR(Advance());  // declare
        XQC_RETURN_IF_ERROR(Advance());  // variable
        VarDecl vd;
        XQC_RETURN_IF_ERROR(Expect(TokKind::kDollar, "'$'"));
        XQC_ASSIGN_OR_RETURN(vd.name, ExpectQName("variable name"));
        if (IsName("as")) {
          XQC_RETURN_IF_ERROR(Advance());
          XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
          vd.type = t;
        }
        if (IsName("external")) {
          XQC_RETURN_IF_ERROR(Advance());
        } else {
          XQC_RETURN_IF_ERROR(Expect(TokKind::kAssign, "':='"));
          XQC_ASSIGN_OR_RETURN(vd.expr, ParseExprSingle());
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
        q->variables.push_back(std::move(vd));
        continue;
      }
      if (PeekIsName("boundary-space")) {
        XQC_RETURN_IF_ERROR(Advance());  // declare
        XQC_RETURN_IF_ERROR(Advance());  // boundary-space
        if (IsName("preserve")) {
          boundary_space_preserve_ = true;
        } else if (!IsName("strip")) {
          return Err("expected 'preserve' or 'strip'");
        }
        XQC_RETURN_IF_ERROR(Advance());
        XQC_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
        continue;
      }
      // declare namespace / default ...: skip to ';'.
      while (!Is(TokKind::kSemicolon) && !Is(TokKind::kEOF)) {
        XQC_RETURN_IF_ERROR(Advance());
      }
      XQC_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
    }
    return Status::OK();
  }

  // ---- expressions --------------------------------------------------------

  Result<ExprPtr> ParseExpr() {  // comma-sequence
    XQC_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (!Is(TokKind::kComma)) return first;
    ExprPtr seq = MakeExpr(ExprKind::kSequence);
    seq->children.push_back(std::move(first));
    while (Is(TokKind::kComma)) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  // Every recursive cycle in the expression grammar passes through
  // ParseExprSingle (operators, parens, predicates, FLWOR bodies) or
  // ParseDirElem (nested direct constructors), so a shared depth counter
  // at these two entry points bounds total parser recursion.
  Result<ExprPtr> ParseExprSingle() {
    if (++depth_ > kMaxNestingDepth) {
      depth_--;
      return Err("expression nesting deeper than " +
                 std::to_string(kMaxNestingDepth));
    }
    Result<ExprPtr> r = ParseExprSingleImpl();
    depth_--;
    return r;
  }

  Result<ExprPtr> ParseExprSingleImpl() {
    if ((IsName("for") || IsName("let")) && PeekIs(TokKind::kDollar)) {
      return ParseFLWOR();
    }
    if ((IsName("some") || IsName("every")) && PeekIs(TokKind::kDollar)) {
      return ParseQuantified();
    }
    if (IsName("typeswitch") && PeekIs(TokKind::kLParen)) {
      return ParseTypeswitch();
    }
    if (IsName("if") && PeekIs(TokKind::kLParen)) return ParseIf();
    return ParseOr();
  }

  Result<ExprPtr> ParseFLWOR() {
    ExprPtr e = MakeExpr(ExprKind::kFLWOR);
    while (true) {
      if ((IsName("for") || IsName("let")) && PeekIs(TokKind::kDollar)) {
        bool is_for = IsName("for");
        XQC_RETURN_IF_ERROR(Advance());
        while (true) {
          Clause c;
          c.kind = is_for ? Clause::Kind::kFor : Clause::Kind::kLet;
          XQC_RETURN_IF_ERROR(Expect(TokKind::kDollar, "'$'"));
          XQC_ASSIGN_OR_RETURN(c.var, ExpectQName("variable name"));
          if (IsName("as")) {
            XQC_RETURN_IF_ERROR(Advance());
            XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
            c.type = t;
          }
          if (is_for && IsName("at")) {
            XQC_RETURN_IF_ERROR(Advance());
            XQC_RETURN_IF_ERROR(Expect(TokKind::kDollar, "'$'"));
            XQC_ASSIGN_OR_RETURN(c.pos_var, ExpectQName("position variable"));
          }
          if (is_for) {
            XQC_RETURN_IF_ERROR(ExpectName("in"));
          } else {
            XQC_RETURN_IF_ERROR(Expect(TokKind::kAssign, "':='"));
          }
          XQC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
          e->clauses.push_back(std::move(c));
          if (!Is(TokKind::kComma)) break;
          XQC_RETURN_IF_ERROR(Advance());
        }
        continue;
      }
      if (IsName("where")) {
        XQC_RETURN_IF_ERROR(Advance());
        Clause c;
        c.kind = Clause::Kind::kWhere;
        XQC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
        e->clauses.push_back(std::move(c));
        continue;
      }
      if (IsName("stable") || IsName("order")) {
        Clause c;
        c.kind = Clause::Kind::kOrderBy;
        if (IsName("stable")) {
          c.stable = true;
          XQC_RETURN_IF_ERROR(Advance());
        }
        XQC_RETURN_IF_ERROR(ExpectName("order"));
        XQC_RETURN_IF_ERROR(ExpectName("by"));
        while (true) {
          Clause::OrderSpec spec;
          XQC_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
          if (IsName("ascending")) {
            XQC_RETURN_IF_ERROR(Advance());
          } else if (IsName("descending")) {
            spec.descending = true;
            XQC_RETURN_IF_ERROR(Advance());
          }
          if (IsName("empty")) {
            XQC_RETURN_IF_ERROR(Advance());
            if (IsName("greatest")) {
              spec.empty_greatest = true;
              XQC_RETURN_IF_ERROR(Advance());
            } else {
              XQC_RETURN_IF_ERROR(ExpectName("least"));
            }
          }
          c.specs.push_back(std::move(spec));
          if (!Is(TokKind::kComma)) break;
          XQC_RETURN_IF_ERROR(Advance());
        }
        e->clauses.push_back(std::move(c));
        continue;
      }
      break;
    }
    XQC_RETURN_IF_ERROR(ExpectName("return"));
    XQC_ASSIGN_OR_RETURN(e->ret, ParseExprSingle());
    return e;
  }

  Result<ExprPtr> ParseQuantified() {
    ExprPtr e = MakeExpr(ExprKind::kQuantified);
    e->quant = IsName("some") ? QuantKind::kSome : QuantKind::kEvery;
    XQC_RETURN_IF_ERROR(Advance());
    while (true) {
      Clause c;
      c.kind = Clause::Kind::kFor;
      XQC_RETURN_IF_ERROR(Expect(TokKind::kDollar, "'$'"));
      XQC_ASSIGN_OR_RETURN(c.var, ExpectQName("variable name"));
      if (IsName("as")) {
        XQC_RETURN_IF_ERROR(Advance());
        XQC_ASSIGN_OR_RETURN(SequenceType t, ParseSequenceType());
        c.type = t;
      }
      XQC_RETURN_IF_ERROR(ExpectName("in"));
      XQC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
      e->clauses.push_back(std::move(c));
      if (!Is(TokKind::kComma)) break;
      XQC_RETURN_IF_ERROR(Advance());
    }
    XQC_RETURN_IF_ERROR(ExpectName("satisfies"));
    XQC_ASSIGN_OR_RETURN(e->ret, ParseExprSingle());
    return e;
  }

  Result<ExprPtr> ParseTypeswitch() {
    ExprPtr e = MakeExpr(ExprKind::kTypeswitch);
    XQC_RETURN_IF_ERROR(Advance());  // typeswitch
    XQC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    XQC_ASSIGN_OR_RETURN(ExprPtr input, ParseExpr());
    e->children.push_back(std::move(input));
    XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    bool saw_default = false;
    while (IsName("case") || IsName("default")) {
      TypeswitchCase c;
      c.is_default = IsName("default");
      XQC_RETURN_IF_ERROR(Advance());
      if (Is(TokKind::kDollar)) {
        XQC_RETURN_IF_ERROR(Advance());
        XQC_ASSIGN_OR_RETURN(c.var, ExpectQName("case variable"));
      }
      if (!c.is_default) {
        if (!c.var.empty()) XQC_RETURN_IF_ERROR(ExpectName("as"));
        XQC_ASSIGN_OR_RETURN(c.type, ParseSequenceType());
      }
      XQC_RETURN_IF_ERROR(ExpectName("return"));
      XQC_ASSIGN_OR_RETURN(c.body, ParseExprSingle());
      if (c.is_default) saw_default = true;
      e->cases.push_back(std::move(c));
      if (saw_default) break;
    }
    if (!saw_default) return Err("typeswitch requires a default clause");
    return e;
  }

  Result<ExprPtr> ParseIf() {
    ExprPtr e = MakeExpr(ExprKind::kIf);
    XQC_RETURN_IF_ERROR(Advance());  // if
    XQC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    XQC_ASSIGN_OR_RETURN(ExprPtr c, ParseExpr());
    XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    XQC_RETURN_IF_ERROR(ExpectName("then"));
    XQC_ASSIGN_OR_RETURN(ExprPtr t, ParseExprSingle());
    XQC_RETURN_IF_ERROR(ExpectName("else"));
    XQC_ASSIGN_OR_RETURN(ExprPtr f, ParseExprSingle());
    e->children = {std::move(c), std::move(t), std::move(f)};
    return e;
  }

  Result<ExprPtr> ParseOr() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (IsName("or")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      ExprPtr e = MakeExpr(ExprKind::kOr);
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
    while (IsName("and")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
      ExprPtr e = MakeExpr(ExprKind::kAnd);
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparison() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRange());
    // General comparisons.
    struct GC { TokKind tok; CompOp op; };
    static const GC kGeneral[] = {
        {TokKind::kEq, CompOp::kEq}, {TokKind::kNe, CompOp::kNe},
        {TokKind::kLt, CompOp::kLt}, {TokKind::kLe, CompOp::kLe},
        {TokKind::kGt, CompOp::kGt}, {TokKind::kGe, CompOp::kGe}};
    for (const GC& g : kGeneral) {
      if (Is(g.tok)) {
        XQC_RETURN_IF_ERROR(Advance());
        XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRange());
        ExprPtr e = MakeExpr(ExprKind::kGeneralComp);
        e->comp_op = g.op;
        e->children = {std::move(lhs), std::move(rhs)};
        return e;
      }
    }
    // Value comparisons (contextual keywords).
    struct VC { const char* name; CompOp op; };
    static const VC kValue[] = {{"eq", CompOp::kEq}, {"ne", CompOp::kNe},
                                {"lt", CompOp::kLt}, {"le", CompOp::kLe},
                                {"gt", CompOp::kGt}, {"ge", CompOp::kGe}};
    for (const VC& v : kValue) {
      if (IsName(v.name)) {
        XQC_RETURN_IF_ERROR(Advance());
        XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRange());
        ExprPtr e = MakeExpr(ExprKind::kValueComp);
        e->comp_op = v.op;
        e->children = {std::move(lhs), std::move(rhs)};
        return e;
      }
    }
    // Node comparisons.
    if (IsName("is") || Is(TokKind::kLtLt) || Is(TokKind::kGtGt)) {
      NodeCompOp op = IsName("is") ? NodeCompOp::kIs
                      : Is(TokKind::kLtLt) ? NodeCompOp::kBefore
                                           : NodeCompOp::kAfter;
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRange());
      ExprPtr e = MakeExpr(ExprKind::kNodeComp);
      e->node_comp_op = op;
      e->children = {std::move(lhs), std::move(rhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseRange() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (IsName("to")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      ExprPtr e = MakeExpr(ExprKind::kRange);
      e->children = {std::move(lhs), std::move(rhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Is(TokKind::kPlus) || Is(TokKind::kMinus)) {
      ArithOp op = Is(TokKind::kPlus) ? ArithOp::kAdd : ArithOp::kSub;
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnion());
    while (Is(TokKind::kStar) || IsName("div") || IsName("idiv") ||
           IsName("mod")) {
      ArithOp op = Is(TokKind::kStar)   ? ArithOp::kMul
                   : IsName("div")      ? ArithOp::kDiv
                   : IsName("idiv")     ? ArithOp::kIDiv
                                        : ArithOp::kMod;
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnion());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnion() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseIntersectExcept());
    while (Is(TokKind::kBar) || IsName("union")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseIntersectExcept());
      ExprPtr e = MakeExpr(ExprKind::kUnion);
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseIntersectExcept() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseInstanceOf());
    while (IsName("intersect") || IsName("except")) {
      ExprKind k = IsName("intersect") ? ExprKind::kIntersect
                                       : ExprKind::kExcept;
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseInstanceOf());
      ExprPtr e = MakeExpr(k);
      e->children = {std::move(lhs), std::move(rhs)};
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<ExprPtr> ParseInstanceOf() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTreat());
    if (IsName("instance") && PeekIsName("of")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(ExprKind::kInstanceOf);
      XQC_ASSIGN_OR_RETURN(e->stype, ParseSequenceType());
      e->children = {std::move(lhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseTreat() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCastable());
    if (IsName("treat") && PeekIsName("as")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(ExprKind::kTreatAs);
      XQC_ASSIGN_OR_RETURN(e->stype, ParseSequenceType());
      e->children = {std::move(lhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseCastable() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCast());
    if (IsName("castable") && PeekIsName("as")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(ExprKind::kCastableAs);
      XQC_ASSIGN_OR_RETURN(e->stype, ParseSingleType());
      e->children = {std::move(lhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseCast() {
    XQC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    if (IsName("cast") && PeekIsName("as")) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(ExprKind::kCastAs);
      XQC_ASSIGN_OR_RETURN(e->stype, ParseSingleType());
      e->children = {std::move(lhs)};
      return e;
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Is(TokKind::kMinus)) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      ExprPtr e = MakeExpr(ExprKind::kUnaryMinus);
      e->children = {std::move(inner)};
      return e;
    }
    if (Is(TokKind::kPlus)) {
      XQC_RETURN_IF_ERROR(Advance());
      return ParseUnary();
    }
    return ParseValueExpr();
  }

  Result<ExprPtr> ParseValueExpr() {
    if (IsName("validate") &&
        (PeekIs(TokKind::kLBrace) || PeekIsName("strict") ||
         PeekIsName("lax"))) {
      XQC_RETURN_IF_ERROR(Advance());
      if (IsName("strict") || IsName("lax")) XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
      XQC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
      ExprPtr e = MakeExpr(ExprKind::kValidate);
      e->children = {std::move(inner)};
      return e;
    }
    return ParsePath();
  }

  // ---- paths --------------------------------------------------------------

  ExprPtr RootExpr() {
    // fn:root(self::node()) applied to the context item.
    ExprPtr self = MakeExpr(ExprKind::kContextItem);
    return MakeCall(Symbol("fn:root"), {std::move(self)});
  }

  ExprPtr DescendantOrSelfStep() {
    ExprPtr s = MakeExpr(ExprKind::kAxisStep);
    s->axis = Axis::kDescendantOrSelf;
    s->node_test = ItemTest::AnyNode();
    return s;
  }

  Result<ExprPtr> ParsePath() {
    ExprPtr lhs;
    if (Is(TokKind::kSlash)) {
      XQC_RETURN_IF_ERROR(Advance());
      lhs = RootExpr();
      if (!StartsStep()) return lhs;  // bare "/"
      XQC_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
      ExprPtr p = MakeExpr(ExprKind::kPath);
      p->children = {std::move(lhs), std::move(step)};
      lhs = std::move(p);
    } else if (Is(TokKind::kSlashSlash)) {
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr p = MakeExpr(ExprKind::kPath);
      p->children = {RootExpr(), DescendantOrSelfStep()};
      lhs = std::move(p);
      XQC_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
      ExprPtr p2 = MakeExpr(ExprKind::kPath);
      p2->children = {std::move(lhs), std::move(step)};
      lhs = std::move(p2);
    } else {
      XQC_ASSIGN_OR_RETURN(lhs, ParseStep());
    }
    while (Is(TokKind::kSlash) || Is(TokKind::kSlashSlash)) {
      bool dslash = Is(TokKind::kSlashSlash);
      XQC_RETURN_IF_ERROR(Advance());
      if (dslash) {
        ExprPtr p = MakeExpr(ExprKind::kPath);
        p->children = {std::move(lhs), DescendantOrSelfStep()};
        lhs = std::move(p);
      }
      XQC_ASSIGN_OR_RETURN(ExprPtr step, ParseStep());
      ExprPtr p = MakeExpr(ExprKind::kPath);
      p->children = {std::move(lhs), std::move(step)};
      lhs = std::move(p);
    }
    return lhs;
  }

  /// Would the current token begin a path step?
  bool StartsStep() const {
    switch (cur_.kind) {
      case TokKind::kDot:
      case TokKind::kDotDot:
      case TokKind::kAt:
      case TokKind::kStar:
      case TokKind::kDollar:
      case TokKind::kLParen:
      case TokKind::kString:
      case TokKind::kInteger:
      case TokKind::kDecimal:
      case TokKind::kDouble:
      case TokKind::kName:
        return true;
      case TokKind::kLt:
        return true;  // direct constructor
      default:
        return false;
    }
  }

  Result<ExprPtr> ParseStep() {
    ExprPtr step;
    bool is_axis_step = false;

    if (Is(TokKind::kDotDot)) {
      XQC_RETURN_IF_ERROR(Advance());
      step = MakeExpr(ExprKind::kAxisStep);
      step->axis = Axis::kParent;
      step->node_test = ItemTest::AnyNode();
      is_axis_step = true;
    } else if (Is(TokKind::kAt)) {
      XQC_RETURN_IF_ERROR(Advance());
      step = MakeExpr(ExprKind::kAxisStep);
      step->axis = Axis::kAttribute;
      XQC_ASSIGN_OR_RETURN(step->node_test,
                           ParseNodeTest(/*attribute_axis=*/true));
      is_axis_step = true;
    } else if (Is(TokKind::kName) && PeekIs(TokKind::kColonColon)) {
      Axis axis;
      if (!AxisFromName(cur_.text, &axis)) {
        return Err("unknown axis '" + cur_.text + "'");
      }
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      step = MakeExpr(ExprKind::kAxisStep);
      step->axis = axis;
      XQC_ASSIGN_OR_RETURN(step->node_test,
                           ParseNodeTest(axis == Axis::kAttribute));
      is_axis_step = true;
    } else if (Is(TokKind::kStar) ||
               (Is(TokKind::kName) && !IsComputedCtorStart() &&
                (!PeekIs(TokKind::kLParen) || IsKindTestName(cur_.text)))) {
      step = MakeExpr(ExprKind::kAxisStep);
      step->axis = Axis::kChild;
      XQC_ASSIGN_OR_RETURN(step->node_test,
                           ParseNodeTest(/*attribute_axis=*/false));
      if (step->node_test.kind == ItemTest::Kind::kAttribute) {
        step->axis = Axis::kAttribute;
      }
      is_axis_step = true;
    } else {
      XQC_ASSIGN_OR_RETURN(step, ParsePrimary());
    }

    // Predicates.
    while (Is(TokKind::kLBracket)) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
      if (is_axis_step) {
        step->children.push_back(std::move(pred));  // per-step predicate
      } else {
        ExprPtr f = MakeExpr(ExprKind::kFilter);
        f->children = {std::move(step), std::move(pred)};
        step = std::move(f);
      }
    }
    return step;
  }

  Result<ItemTest> ParseNodeTest(bool attribute_axis) {
    if (Is(TokKind::kStar)) {
      XQC_RETURN_IF_ERROR(Advance());
      return attribute_axis ? ItemTest::Attribute() : ItemTest::Element();
    }
    if (!Is(TokKind::kName)) return Err("expected a node test");
    if (PeekIs(TokKind::kLParen) && IsKindTestName(cur_.text)) {
      return ParseKindTest();
    }
    Symbol name(cur_.text);
    XQC_RETURN_IF_ERROR(Advance());
    return attribute_axis ? ItemTest::Attribute(name) : ItemTest::Element(name);
  }

  Result<ItemTest> ParseKindTest() {
    std::string kind = cur_.text;
    XQC_RETURN_IF_ERROR(Advance());
    XQC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    ItemTest t;
    if (kind == "node") {
      t = ItemTest::AnyNode();
    } else if (kind == "text") {
      t = ItemTest::OfKind(ItemTest::Kind::kText);
    } else if (kind == "comment") {
      t = ItemTest::OfKind(ItemTest::Kind::kComment);
    } else if (kind == "processing-instruction") {
      t = ItemTest::OfKind(ItemTest::Kind::kPI);
      if (Is(TokKind::kName) || Is(TokKind::kString)) {
        t.name = Symbol(cur_.text);
        XQC_RETURN_IF_ERROR(Advance());
      }
    } else if (kind == "document-node") {
      t = ItemTest::OfKind(ItemTest::Kind::kDocument);
    } else if (kind == "item") {
      t = ItemTest::AnyItem();
    } else if (kind == "element" || kind == "attribute") {
      Symbol name, type;
      if (!Is(TokKind::kRParen)) {
        if (Is(TokKind::kStar)) {
          XQC_RETURN_IF_ERROR(Advance());
        } else {
          XQC_ASSIGN_OR_RETURN(name, ExpectQName("element name or '*'"));
        }
        if (Is(TokKind::kComma)) {
          XQC_RETURN_IF_ERROR(Advance());
          XQC_ASSIGN_OR_RETURN(type, ExpectQName("type name"));
        }
      }
      t = kind == "element" ? ItemTest::Element(name, type)
                            : ItemTest::Attribute(name, type);
    } else {
      return Err("unsupported kind test '" + kind + "'");
    }
    XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return t;
  }

  // ---- primary expressions ------------------------------------------------

  Result<ExprPtr> ParsePrimary() {
    switch (cur_.kind) {
      case TokKind::kInteger:
      case TokKind::kDecimal:
      case TokKind::kDouble: {
        ExprPtr e = MakeLiteral(cur_.number);
        XQC_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kString: {
        ExprPtr e = MakeLiteral(AtomicValue::String(cur_.text));
        XQC_RETURN_IF_ERROR(Advance());
        return e;
      }
      case TokKind::kDollar: {
        XQC_RETURN_IF_ERROR(Advance());
        XQC_ASSIGN_OR_RETURN(Symbol name, ExpectQName("variable name"));
        return MakeVarRef(name);
      }
      case TokKind::kDot: {
        XQC_RETURN_IF_ERROR(Advance());
        return MakeExpr(ExprKind::kContextItem);
      }
      case TokKind::kLParen: {
        XQC_RETURN_IF_ERROR(Advance());
        if (Is(TokKind::kRParen)) {
          XQC_RETURN_IF_ERROR(Advance());
          return MakeExpr(ExprKind::kEmptySeq);
        }
        XQC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return e;
      }
      case TokKind::kLt:
        return ParseDirectConstructor();
      case TokKind::kName:
        break;
      default:
        return Err("expected an expression");
    }

    // Computed constructors and ordered/unordered.
    const std::string& n = cur_.text;
    if ((n == "ordered" || n == "unordered") && PeekIs(TokKind::kLBrace)) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      XQC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
      return e;  // ordering modes are identity in our (ordered) engine
    }
    if (n == "element" || n == "attribute") {
      // computed: element Name {content} or element {NameExpr} {content}
      if (PeekIs(TokKind::kLBrace) ||
          (PeekIs(TokKind::kName) && LooksLikeComputedCtor())) {
        ExprKind k = n == "element" ? ExprKind::kCompElement
                                    : ExprKind::kCompAttribute;
        XQC_RETURN_IF_ERROR(Advance());
        ExprPtr e = MakeExpr(k);
        if (Is(TokKind::kLBrace)) {
          XQC_RETURN_IF_ERROR(Advance());
          XQC_ASSIGN_OR_RETURN(e->name_expr, ParseExpr());
          XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
        } else {
          XQC_ASSIGN_OR_RETURN(e->name, ExpectQName("constructor name"));
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
        if (!Is(TokKind::kRBrace)) {
          XQC_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
          e->children.push_back(std::move(content));
        }
        XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
        return e;
      }
    }
    if ((n == "text" || n == "comment" || n == "document") &&
        PeekIs(TokKind::kLBrace)) {
      ExprKind k = n == "text"      ? ExprKind::kCompText
                   : n == "comment" ? ExprKind::kCompComment
                                    : ExprKind::kCompDocument;
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(k);
      if (!Is(TokKind::kRBrace)) {
        XQC_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
        e->children.push_back(std::move(content));
      }
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
      return e;
    }
    if (n == "processing-instruction" && PeekIs(TokKind::kName)) {
      XQC_RETURN_IF_ERROR(Advance());
      ExprPtr e = MakeExpr(ExprKind::kCompPI);
      XQC_ASSIGN_OR_RETURN(e->name, ExpectQName("PI target"));
      XQC_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
      if (!Is(TokKind::kRBrace)) {
        XQC_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
        e->children.push_back(std::move(content));
      }
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
      return e;
    }

    // Function call.
    if (PeekIs(TokKind::kLParen)) {
      Symbol fname(n);
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      std::vector<ExprPtr> args;
      if (!Is(TokKind::kRParen)) {
        while (true) {
          XQC_ASSIGN_OR_RETURN(ExprPtr a, ParseExprSingle());
          args.push_back(std::move(a));
          if (!Is(TokKind::kComma)) break;
          XQC_RETURN_IF_ERROR(Advance());
        }
      }
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return MakeCall(fname, std::move(args));
    }
    return Err("unexpected name '" + n + "' in expression");
  }

  /// Is the current name token the start of a computed constructor (or
  /// ordered/unordered expression) rather than a path step?
  bool IsComputedCtorStart() const {
    const std::string& n = cur_.text;
    if ((n == "text" || n == "comment" || n == "document" || n == "ordered" ||
         n == "unordered") &&
        PeekIs(TokKind::kLBrace)) {
      return true;
    }
    if (n == "element" || n == "attribute") {
      if (PeekIs(TokKind::kLBrace)) return true;
      if (PeekIs(TokKind::kName) && LooksLikeComputedCtor()) return true;
    }
    if (n == "processing-instruction" && PeekIs(TokKind::kName) &&
        LooksLikeComputedCtor()) {
      return true;
    }
    return false;
  }

  /// Heuristic: `element foo {` — the name token is followed by '{'.
  bool LooksLikeComputedCtor() const {
    // cur_ = element/attribute, peek_ = Name. We need the token after peek_
    // to be '{'; scan it without disturbing the stream.
    Lexer probe(lex_.input());
    probe.SetPos(peek_pos_);
    Result<Token> t1 = probe.Next();  // the name
    if (!t1.ok()) return false;
    Result<Token> t2 = probe.Next();
    return t2.ok() && t2.value().kind == TokKind::kLBrace;
  }

  // ---- direct constructors (character level) -------------------------------

  Result<ExprPtr> ParseDirectConstructor() {
    // cur_ is '<'; re-parse from its raw offset.
    size_t p = cur_.offset;
    XQC_ASSIGN_OR_RETURN(ExprPtr e, ParseDirElem(&p));
    lex_.SetPos(p);
    XQC_RETURN_IF_ERROR(Init());
    return e;
  }

  Result<ExprPtr> ParseDirElem(size_t* p) {
    if (++depth_ > kMaxNestingDepth) {
      depth_--;
      return Status::ParseError("direct constructor error at line " +
                                std::to_string(lex_.LineOf(*p)) +
                                ": element nesting deeper than " +
                                std::to_string(kMaxNestingDepth));
    }
    Result<ExprPtr> r = ParseDirElemImpl(p);
    depth_--;
    return r;
  }

  Result<ExprPtr> ParseDirElemImpl(size_t* p) {
    std::string_view s = lex_.input();
    auto err = [&](const std::string& m) {
      return Status::ParseError("direct constructor error at line " +
                                std::to_string(lex_.LineOf(*p)) + ": " + m);
    };
    auto skip_ws = [&] {
      while (*p < s.size() && IsXmlSpace(s[*p])) (*p)++;
    };
    auto name_char = [&](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
             (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
             c == ':';
    };
    if (*p >= s.size() || s[*p] != '<') return err("expected '<'");
    (*p)++;
    size_t nstart = *p;
    while (*p < s.size() && name_char(s[*p])) (*p)++;
    if (*p == nstart) return err("expected element name");
    Symbol name(s.substr(nstart, *p - nstart));
    ExprPtr e = MakeExpr(ExprKind::kCompElement);
    e->name = name;

    // Attributes.
    while (true) {
      skip_ws();
      if (*p >= s.size()) return err("unterminated start tag");
      if (s.compare(*p, 2, "/>") == 0) {
        *p += 2;
        return e;
      }
      if (s[*p] == '>') {
        (*p)++;
        break;
      }
      size_t astart = *p;
      while (*p < s.size() && name_char(s[*p])) (*p)++;
      if (*p == astart) return err("expected attribute name");
      Symbol aname(s.substr(astart, *p - astart));
      skip_ws();
      if (*p >= s.size() || s[*p] != '=') return err("expected '='");
      (*p)++;
      skip_ws();
      if (*p >= s.size() || (s[*p] != '"' && s[*p] != '\'')) {
        return err("expected quoted attribute value");
      }
      char quote = s[*p];
      (*p)++;
      ExprPtr attr = MakeExpr(ExprKind::kCompAttribute);
      attr->name = aname;
      std::string text;
      while (true) {
        if (*p >= s.size()) return err("unterminated attribute value");
        char c = s[*p];
        if (c == quote) {
          (*p)++;
          break;
        }
        if (c == '{') {
          if (*p + 1 < s.size() && s[*p + 1] == '{') {
            text.push_back('{');
            *p += 2;
            continue;
          }
          if (!text.empty()) {
            attr->children.push_back(
                MakeLiteral(AtomicValue::String(std::move(text))));
            text.clear();
          }
          (*p)++;
          XQC_ASSIGN_OR_RETURN(ExprPtr inner, ParseEnclosed(p));
          attr->children.push_back(std::move(inner));
          continue;
        }
        if (c == '}') {
          if (*p + 1 < s.size() && s[*p + 1] == '}') {
            text.push_back('}');
            *p += 2;
            continue;
          }
          return err("unescaped '}' in attribute value");
        }
        text.push_back(c);
        (*p)++;
      }
      if (!text.empty()) {
        attr->children.push_back(
            MakeLiteral(AtomicValue::String(std::move(text))));
      }
      // Attribute value templates: multiple pieces concatenate WITHOUT
      // separators, while items within one enclosed piece space-join.
      if (attr->children.size() > 1) {
        std::vector<ExprPtr> pieces;
        for (ExprPtr& piece : attr->children) {
          if (piece->kind == ExprKind::kLiteral) {
            pieces.push_back(std::move(piece));
          } else {
            pieces.push_back(
                MakeCall(Symbol("fs:avt-piece"), {std::move(piece)}));
          }
        }
        attr->children.clear();
        attr->children.push_back(MakeCall(Symbol("fn:concat"), std::move(pieces)));
      }
      e->children.push_back(std::move(attr));
    }

    // Content.
    std::string text;
    auto flush_text = [&] {
      if (text.empty()) return;
      // Boundary whitespace is stripped unless `declare boundary-space
      // preserve` is in effect.
      if (boundary_space_preserve_ || !IsAllXmlSpace(text)) {
        ExprPtr t = MakeExpr(ExprKind::kCompText);
        t->children.push_back(MakeLiteral(AtomicValue::String(text)));
        e->children.push_back(std::move(t));
      }
      text.clear();
    };
    while (true) {
      if (*p >= s.size()) return err("unterminated element content");
      char c = s[*p];
      if (c == '<') {
        if (s.compare(*p, 2, "</") == 0) {
          flush_text();
          *p += 2;
          size_t estart = *p;
          while (*p < s.size() && name_char(s[*p])) (*p)++;
          if (Symbol(s.substr(estart, *p - estart)) != name) {
            return err("mismatched end tag");
          }
          skip_ws();
          if (*p >= s.size() || s[*p] != '>') return err("malformed end tag");
          (*p)++;
          return e;
        }
        if (s.compare(*p, 4, "<!--") == 0) {
          flush_text();
          size_t end = s.find("-->", *p + 4);
          if (end == std::string_view::npos) return err("unterminated comment");
          ExprPtr cm = MakeExpr(ExprKind::kCompComment);
          cm->children.push_back(MakeLiteral(
              AtomicValue::String(std::string(s.substr(*p + 4, end - *p - 4)))));
          e->children.push_back(std::move(cm));
          *p = end + 3;
          continue;
        }
        if (s.compare(*p, 9, "<![CDATA[") == 0) {
          size_t end = s.find("]]>", *p + 9);
          if (end == std::string_view::npos) return err("unterminated CDATA");
          text.append(s.substr(*p + 9, end - *p - 9));
          *p = end + 3;
          continue;
        }
        flush_text();
        XQC_ASSIGN_OR_RETURN(ExprPtr child, ParseDirElem(p));
        e->children.push_back(std::move(child));
        continue;
      }
      if (c == '{') {
        if (*p + 1 < s.size() && s[*p + 1] == '{') {
          text.push_back('{');
          *p += 2;
          continue;
        }
        flush_text();
        (*p)++;
        XQC_ASSIGN_OR_RETURN(ExprPtr inner, ParseEnclosed(p));
        e->children.push_back(std::move(inner));
        continue;
      }
      if (c == '}') {
        if (*p + 1 < s.size() && s[*p + 1] == '}') {
          text.push_back('}');
          *p += 2;
          continue;
        }
        return err("unescaped '}' in element content");
      }
      if (c == '&') {
        size_t semi = s.find(';', *p);
        if (semi == std::string_view::npos) return err("unterminated entity");
        std::string_view ent = s.substr(*p + 1, semi - *p - 1);
        if (ent == "lt") text.push_back('<');
        else if (ent == "gt") text.push_back('>');
        else if (ent == "amp") text.push_back('&');
        else if (ent == "quot") text.push_back('"');
        else if (ent == "apos") text.push_back('\'');
        else return err("unknown entity");
        *p = semi + 1;
        continue;
      }
      text.push_back(c);
      (*p)++;
    }
  }

  /// Parses an enclosed expression `{ ... }` starting just after '{';
  /// leaves *p just after the matching '}'.
  Result<ExprPtr> ParseEnclosed(size_t* p) {
    lex_.SetPos(*p);
    XQC_RETURN_IF_ERROR(Init());
    XQC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!Is(TokKind::kRBrace)) return Err("expected '}'");
    *p = cur_.offset + 1;  // resume character-level parsing after '}'
    return e;
  }

  // ---- sequence types -------------------------------------------------------

  Result<SequenceType> ParseSequenceType() {
    if (IsName("empty-sequence") && PeekIs(TokKind::kLParen)) {
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Advance());
      XQC_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return SequenceType::Empty();
    }
    ItemTest test;
    if (Is(TokKind::kName) && PeekIs(TokKind::kLParen) &&
        IsKindTestName(cur_.text)) {
      XQC_ASSIGN_OR_RETURN(test, ParseKindTest());
    } else if (Is(TokKind::kName)) {
      AtomicType at;
      if (!AtomicTypeFromName(cur_.text, &at)) {
        return Err("unknown atomic type '" + cur_.text + "'");
      }
      test = ItemTest::Atomic(at);
      XQC_RETURN_IF_ERROR(Advance());
    } else {
      return Err("expected a sequence type");
    }
    SequenceType st = SequenceType::One(test);
    if (Is(TokKind::kQuestion)) {
      st.occ = Occurrence::kOptional;
      XQC_RETURN_IF_ERROR(Advance());
    } else if (Is(TokKind::kStar)) {
      st.occ = Occurrence::kStar;
      XQC_RETURN_IF_ERROR(Advance());
    } else if (Is(TokKind::kPlus)) {
      st.occ = Occurrence::kPlus;
      XQC_RETURN_IF_ERROR(Advance());
    }
    return st;
  }

  Result<SequenceType> ParseSingleType() {
    if (!Is(TokKind::kName)) return Err("expected an atomic type");
    AtomicType at;
    if (!AtomicTypeFromName(cur_.text, &at)) {
      return Err("unknown atomic type '" + cur_.text + "'");
    }
    XQC_RETURN_IF_ERROR(Advance());
    SequenceType st = SequenceType::One(ItemTest::Atomic(at));
    if (Is(TokKind::kQuestion)) {
      st.occ = Occurrence::kOptional;
      XQC_RETURN_IF_ERROR(Advance());
    }
    return st;
  }

  Lexer lex_;
  QueryGuard* guard_ = nullptr;  // optional; checked once per token
  int depth_ = 0;                // ParseExprSingle + ParseDirElem nesting
  Token cur_;
  Token peek_;
  Status peek_status_;   // deferred scan error for a kError peek token
  size_t peek_pos_ = 0;  // lexer offset where peek_ was scanned
  bool boundary_space_preserve_ = false;  // declare boundary-space preserve
};

}  // namespace

Result<Query> ParseXQuery(std::string_view text, QueryGuard* guard) {
  Parser p(text, guard);
  return p.ParseQuery();
}

Result<ExprPtr> ParseXQueryExpr(std::string_view text) {
  Parser p(text);
  return p.ParseSingleExpr();
}

Result<SequenceType> ParseSequenceTypeString(std::string_view text) {
  Parser p(text);
  return p.ParseSequenceTypeOnly();
}

}  // namespace xqc
