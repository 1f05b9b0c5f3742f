#include "CancelCoverageCheck.h"

#include "QpptTidyUtils.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/Stmt.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

namespace clang::tidy::qppt {

using namespace ast_matchers;

namespace {

constexpr char kDefaultHotDirs[] = "src/core/operators;src/engine;src/index";
constexpr unsigned kCommentLookback = 3;

// True when the function body mentions any cancellation source — the
// precondition for demanding a poll. A helper with no CancelToken /
// ExecContext / MorselSite in scope *cannot* poll; its caller owns the
// obligation instead.
bool MentionsCancelSource(const Stmt *S) {
  if (S == nullptr)
    return false;
  if (const auto *E = llvm::dyn_cast<Expr>(S)) {
    if (TypeMentionsAny(E->getType(), {"CancelToken", "CancelTicker",
                                       "ExecContext", "MorselSite"}))
      return true;
  }
  if (const auto *DS = llvm::dyn_cast<DeclStmt>(S)) {
    for (const Decl *D : DS->decls()) {
      if (const auto *VD = llvm::dyn_cast<VarDecl>(D)) {
        if (TypeMentionsAny(VD->getType(), {"CancelToken", "CancelTicker",
                                            "ExecContext", "MorselSite"}))
          return true;
      }
    }
  }
  for (const Stmt *C : S->children()) {
    if (MentionsCancelSource(C))
      return true;
  }
  return false;
}

// True when the subtree polls cancellation: a Tick/Check/
// cancel_requested member call on a Cancel* object, an
// ExecContext::CheckCancelled call, or a call into any function taking
// a MorselSite (the parallel drivers poll once per morsel).
bool PollsCancellation(const Stmt *S) {
  if (S == nullptr)
    return false;
  if (const auto *MC = llvm::dyn_cast<CXXMemberCallExpr>(S)) {
    if (const CXXMethodDecl *MD = MC->getMethodDecl()) {
      StringRef Name =
          MD->getDeclName().isIdentifier() ? MD->getName() : StringRef();
      if (Name == "CheckCancelled")
        return true;
      if (Name == "Tick" || Name == "Check" || Name == "cancel_requested") {
        const Expr *Obj = MC->getImplicitObjectArgument();
        if (Obj != nullptr && TypeMentionsAny(Obj->getType(), {"Cancel"}))
          return true;
      }
    }
  }
  if (const auto *CE = llvm::dyn_cast<CallExpr>(S)) {
    if (const FunctionDecl *FD = CE->getDirectCallee()) {
      for (const ParmVarDecl *P : FD->parameters()) {
        if (TypeMentionsAny(P->getType(), {"MorselSite"}))
          return true;
      }
    }
  }
  for (const Stmt *C : S->children()) {
    if (PollsCancellation(C))
      return true;
  }
  return false;
}

}  // namespace

CancelCoverageCheck::CancelCoverageCheck(StringRef Name,
                                         ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      RawHotDirs(Options.get("HotDirs", kDefaultHotDirs)),
      HotDirs(ParseSemiList(RawHotDirs)) {}

void CancelCoverageCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "HotDirs", RawHotDirs);
}

void CancelCoverageCheck::registerMatchers(MatchFinder *Finder) {
  // The synchronous tree-scan primitives (core/sync_scan.h and the
  // index accessors): each one hides an input-sized loop behind one
  // call, so an unpolled call site is an unpolled loop.
  auto ScanCall =
      callExpr(callee(functionDecl(hasAnyName(
                   "SynchronousScan", "SynchronousScanRange",
                   "SynchronousScanUnits", "ScanAll", "ScanGroups",
                   "ForEachMatch"))))
          .bind("site");
  Finder->addMatcher(ScanCall, this);

  // Nested hand-written loops: the outer head of any loop that contains
  // another loop — the shape of every quadratic-or-worse tuple walk.
  auto AnyLoop =
      stmt(anyOf(forStmt(), whileStmt(), doStmt(), cxxForRangeStmt()));
  Finder->addMatcher(forStmt(hasDescendant(AnyLoop)).bind("site"), this);
  Finder->addMatcher(whileStmt(hasDescendant(AnyLoop)).bind("site"), this);
  Finder->addMatcher(doStmt(hasDescendant(AnyLoop)).bind("site"), this);
  Finder->addMatcher(cxxForRangeStmt(hasDescendant(AnyLoop)).bind("site"),
                     this);
}

void CancelCoverageCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Site = Result.Nodes.getNodeAs<Stmt>("site");
  if (Site == nullptr)
    return;
  const SourceManager &SM = *Result.SourceManager;
  SourceLocation Loc = Site->getBeginLoc();
  if (!InAnyDir(NormalizedFile(SM, Loc), HotDirs))
    return;
  if (HasEscapeComment(SM, Loc, "cancel-exempt:", kCommentLookback))
    return;
  const FunctionDecl *F = EnclosingNonLambdaFunction(*Result.Context, Site);
  if (F == nullptr || !F->hasBody() || F->isImplicit())
    return;
  const Stmt *Body = F->getBody();
  bool HasAccess = MentionsCancelSource(Body);
  for (const ParmVarDecl *P : F->parameters()) {
    HasAccess = HasAccess ||
                TypeMentionsAny(P->getType(), {"CancelToken", "CancelTicker",
                                               "ExecContext", "MorselSite"});
  }
  if (!HasAccess)
    return;  // no cancel source in scope — the caller owns the poll
  if (PollsCancellation(Body))
    return;
  diag(Loc,
       "scan work in %0 never polls cancellation although the function "
       "reaches a cancel source; add a CancelTicker::Tick / "
       "CancelToken::Check in the loop (or a MorselSite driver), or "
       "annotate '// cancel-exempt: <reason>'")
      << F;
}

}  // namespace clang::tidy::qppt
