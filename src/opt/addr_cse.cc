/**
 * @file
 * Loop-invariant address-expression CSE.
 *
 * Lowered kernels evaluate large shared address trees (global bases,
 * tile offsets, stride products, bounds predicates) once per thread per
 * op per iteration. Many subtrees are invariant across a loop: they
 * reference only kernel parameters, block indices, outer loop variables,
 * and the workspace pointer — never the thread index (a hoisted value
 * becomes a uniform scalar assignment, which is block-wide) and never a
 * variable defined inside the loop.
 *
 * For every loop the pass collects the *topmost* invariant subtrees of
 * each expression site in the loop subtree, then hoists those that are
 * repeated (count >= 2, size >= 2 nodes) or individually expensive
 * (size >= 4 nodes) into `LAssign` temporaries in the loop preheader and
 * rewrites the sites to reference the temporary. Hoisting is pure
 * arithmetic: evaluating an address subtree early cannot fault (LIR
 * divisions are by nonzero constants), so a zero-trip loop stays safe.
 *
 * Cost is linear in the expression nodes of each loop's sites. One
 * ir::StructuralIds per pass run memoizes each node's hash-consed
 * structural id (equal iff ir::structuralKey would render the two
 * nodes equal) and node count, both built bottom-up; invariance is
 * memoized per loop against a hashed forbidden set. Candidates and the
 * rewrite are keyed by structural id, and the rewrite looks up only
 * invariant compound nodes (no other node can share a candidate's id).
 */
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "opt/lir_rewrite.h"
#include "opt/pass.h"

namespace tilus {
namespace opt {

namespace {

using namespace tilus::lir;

/** Ids defined inside the subtree: loop variables and LAssign targets. */
void
collectDefinedVars(const LBody &body, std::unordered_set<int> &out)
{
    for (const LNode &node : body) {
        if (std::holds_alternative<LFor>(node.node)) {
            const auto &loop = std::get<LFor>(node.node);
            out.insert(loop.var.id());
            collectDefinedVars(*loop.body, out);
        } else if (std::holds_alternative<LIf>(node.node)) {
            const auto &branch = std::get<LIf>(node.node);
            collectDefinedVars(*branch.then_body, out);
            if (branch.else_body)
                collectDefinedVars(*branch.else_body, out);
        } else if (std::holds_alternative<LWhile>(node.node)) {
            collectDefinedVars(*std::get<LWhile>(node.node).body, out);
        } else if (std::holds_alternative<LAssign>(node.node)) {
            out.insert(std::get<LAssign>(node.node).var.id());
        }
    }
}

bool
isCompound(const ir::Expr &e)
{
    return e->kind() == ir::ExprKind::kUnary ||
           e->kind() == ir::ExprKind::kBinary ||
           e->kind() == ir::ExprKind::kSelect;
}

/** One hoisting candidate: a structural class of topmost subtrees. */
struct HoistCandidate
{
    ir::Expr expr; ///< first occurrence (the hoisted value)
    int64_t count = 0;
    int64_t nodes = 0;
    ir::Expr temp; ///< the preheader temporary, once selected
};

class AddressHoist : public Pass
{
  public:
    const char *
    name() const override
    {
        return "addr-hoist";
    }

    bool
    run(Kernel &kernel) override
    {
        next_temp_ = 0;
        ids_ = ir::StructuralIds();
        return processBody(kernel.body);
    }

  private:
    bool
    processBody(LBody &body)
    {
        bool changed = false;
        for (size_t i = 0; i < body.size(); ++i) {
            LNode &node = body[i];
            if (std::holds_alternative<LFor>(node.node)) {
                auto &loop = std::get<LFor>(node.node);
                size_t inserted = hoistLoop(loop, body, i);
                changed |= inserted > 0;
                i += inserted; // skip the new preheader assigns
                // `node`/`loop` may be dangling after insertion; re-fetch.
                auto &loop2 = std::get<LFor>(body[i].node);
                changed |= processBody(*loop2.body);
            } else if (std::holds_alternative<LIf>(node.node)) {
                auto &branch = std::get<LIf>(node.node);
                changed |= processBody(*branch.then_body);
                if (branch.else_body)
                    changed |= processBody(*branch.else_body);
            } else if (std::holds_alternative<LWhile>(node.node)) {
                changed |= processBody(*std::get<LWhile>(node.node).body);
            }
        }
        return changed;
    }

    /**
     * Hoist invariant subtrees of `loop` into preheader assigns inserted
     * at `body[index]`; returns the number of inserted nodes.
     */
    size_t
    hoistLoop(LFor &loop, LBody &body, size_t index)
    {
        // Invariant: no tid, no loop variable, nothing defined inside.
        forbidden_.clear();
        forbidden_.insert(tidVar().id());
        forbidden_.insert(loop.var.id());
        collectDefinedVars(*loop.body, forbidden_);
        invariant_.clear();

        // Gather topmost invariant subtrees over every expression site,
        // one candidate per structural id, in first-occurrence order.
        candidates_.clear();
        candidate_of_.clear();
        forEachBodyExpr(*loop.body, [&](ir::Expr &e) { gather(e); });

        LBody assigns;
        for (HoistCandidate &cand : candidates_) {
            if ((cand.count >= 2 && cand.nodes >= 2) || cand.nodes >= 4) {
                ir::Var temp = ir::Var::make(
                    "inv" + std::to_string(next_temp_++),
                    cand.expr->dtype());
                cand.temp = temp;
                assigns.push_back(LNode{LAssign{temp, cand.expr}});
            }
        }
        if (assigns.empty())
            return 0;

        // The replaced site trees stay alive until the rewrite is done,
        // so no address in invariant_ is recycled under it.
        std::vector<ir::Expr> replaced;
        forEachBodyExpr(*loop.body, [&](ir::Expr &e) {
            ir::Expr rewritten = rewriteExpr(e);
            replaced.push_back(std::exchange(e, std::move(rewritten)));
        });

        const size_t n = assigns.size();
        body.insert(body.begin() + static_cast<long>(index),
                    std::make_move_iterator(assigns.begin()),
                    std::make_move_iterator(assigns.end()));
        return n;
    }

    /** Whether @p e avoids the current loop's forbidden set (bottom-up;
        compound nodes are memoized per loop). */
    bool
    invariant(const ir::Expr &e)
    {
        switch (e->kind()) {
          case ir::ExprKind::kConst:
            return true;
          case ir::ExprKind::kVar:
            return forbidden_.count(
                       static_cast<const ir::VarNode &>(*e).id) == 0;
          default:
            break;
        }
        auto [it, inserted] = invariant_.try_emplace(e.get(), false);
        if (!inserted)
            return it->second;
        bool &memo = it->second; // unordered_map references survive rehash
        if (e->kind() == ir::ExprKind::kUnary) {
            memo = invariant(static_cast<const ir::UnaryNode &>(*e).a);
        } else if (e->kind() == ir::ExprKind::kBinary) {
            const auto &node = static_cast<const ir::BinaryNode &>(*e);
            memo = invariant(node.a) & invariant(node.b);
        } else {
            const auto &node = static_cast<const ir::SelectNode &>(*e);
            memo = invariant(node.cond) & invariant(node.on_true) &
                   invariant(node.on_false);
        }
        return memo;
    }

    /** Record the topmost invariant compound subtrees of `e`. */
    void
    gather(const ir::Expr &e)
    {
        if (!isCompound(e))
            return;
        if (invariant(e)) {
            auto [it, inserted] =
                candidate_of_.try_emplace(ids_.of(e), candidates_.size());
            if (inserted)
                candidates_.push_back({e, 0, ids_.nodeCount(e), nullptr});
            candidates_[it->second].count += 1;
            return; // topmost only: do not descend
        }
        switch (e->kind()) {
          case ir::ExprKind::kUnary:
            gather(static_cast<const ir::UnaryNode &>(*e).a);
            break;
          case ir::ExprKind::kBinary: {
            const auto &node = static_cast<const ir::BinaryNode &>(*e);
            gather(node.a);
            gather(node.b);
            break;
          }
          case ir::ExprKind::kSelect: {
            const auto &node = static_cast<const ir::SelectNode &>(*e);
            gather(node.cond);
            gather(node.on_true);
            gather(node.on_false);
            break;
          }
          default:
            break;
        }
    }

    /** Replace every selected subtree with its temporary, top-down.
        Only an invariant compound node can share a candidate's id. */
    ir::Expr
    rewriteExpr(const ir::Expr &e)
    {
        return ir::mapExpr(e, [&](const ir::Expr &sub) -> ir::Expr {
            if (!isCompound(sub) || !invariant(sub))
                return nullptr;
            auto it = candidate_of_.find(ids_.of(sub));
            return it != candidate_of_.end() ? candidates_[it->second].temp
                                             : nullptr;
        });
    }

    int next_temp_ = 0;
    ir::StructuralIds ids_; ///< per pass run
    // Per-loop state of hoistLoop.
    std::unordered_set<int> forbidden_;
    std::unordered_map<const ir::ExprNode *, bool> invariant_;
    std::vector<HoistCandidate> candidates_;
    std::unordered_map<uint32_t, size_t> candidate_of_;
};

} // namespace

std::unique_ptr<Pass>
createAddressHoistPass()
{
    return std::make_unique<AddressHoist>();
}

} // namespace opt
} // namespace tilus
