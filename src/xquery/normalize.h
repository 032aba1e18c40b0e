// Normalization into the XQuery Core (Section 4 of the paper).
//
// Follows the W3C Formal Semantics normalization with the paper's fixes:
//  - FLWOR expressions keep their multi-clause structure (they are NOT
//    broken into nested single-clause for/let expressions), which enables
//    direct compilation into tuple operators and a proper treatment of
//    order by;
//  - each path step with predicates becomes one complete FLWOR block with
//    an `at $fs:position` clause and a where clause (instead of a mix of
//    for and if), exactly as in the paper's
//    `$d/descendant::person[position()=1]` example;
//  - typeswitch is normalized so every branch uses one common variable.
//
// After normalization the expression tree only contains Core forms:
// literals, (), variables, n-ary sequences, structured FLWOR, quantified,
// unified typeswitch, if with EBV condition, computed constructors, bare
// axis steps (context in $fs:dot), validate, the four type expressions, and
// function calls (every operator has become an op:* / fs:* call, e.g.
// op:general-eq carries the paper's existential comparison semantics).
#ifndef XQC_XQUERY_NORMALIZE_H_
#define XQC_XQUERY_NORMALIZE_H_

#include "src/base/status.h"
#include "src/xquery/ast.h"

namespace xqc {

/// The context-item variable the normalizer introduces ("fs:dot").
Symbol FsDotVar();
/// The context-position variable ("fs:position").
Symbol FsPositionVar();

/// Normalizes an expression into the Core.
Result<ExprPtr> NormalizeExpr(const ExprPtr& e);

/// Normalizes a whole query module (body, function bodies, variable
/// initializers) and binds every call, once: to the declared function of
/// its (name, arity), else to a builtin row (Expr::builtin); an unprefixed
/// name that is not declared resolves into the fn: namespace. An unbound
/// call anywhere is XPST0017; a duplicate (name, arity) is XQST0034.
Result<Query> NormalizeQuery(const Query& q);

/// Substitutes free occurrences of variable `from` by `to`, respecting
/// shadowing. Used by normalization and by tests.
ExprPtr SubstituteVar(const ExprPtr& e, Symbol from, Symbol to);

/// Hoists leading `let` clauses of the query body into prolog variable
/// declarations. A leading let can only reference prolog globals, so this
/// is always sound; it makes `let $doc := doc(...)` document roots
/// independent of the tuple stream, which in turn lets the optimizer's
/// (insert product) / (insert join) rules fire on paths rooted at them.
void HoistLeadingLets(Query* q);

/// Hoists correlated nested FLWOR blocks that appear inside a FLWOR's
/// return clause (within constructor content, sequences, or function-call
/// arguments) into fresh trailing `let` clauses of the enclosing FLWOR.
///
/// Real queries (the paper's Clio workloads, Figure 1) put nested blocks
/// directly inside element constructors; the (insert group-by) rewriting
/// only sees unary tuple constructors, i.e. let clauses. This pass makes
/// unnesting robust to that interleaving (Section 5's motivation). Only
/// blocks with a correlated where clause are hoisted — those are the join
/// candidates; hoisting anything else would add GroupBy machinery with no
/// join to gain.
void HoistNestedReturnBlocks(Query* q);

}  // namespace xqc

#endif  // XQC_XQUERY_NORMALIZE_H_
