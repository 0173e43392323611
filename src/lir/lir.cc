#include "lir/lir.h"

#include <sstream>

#include "support/error.h"

namespace tilus {
namespace lir {

const ir::Var &
tidVar()
{
    static ir::Var var = ir::Var::reserved(0, "tid", tilus::int32());
    return var;
}

const ir::Var &
workspaceVar()
{
    static ir::Var var = ir::Var::reserved(1, "__workspace", tilus::int64());
    return var;
}

const ir::Var &
blockIdxVar(int dim)
{
    static ir::Var vars[3] = {
        ir::Var::reserved(2, "ctaid.x", tilus::int32()),
        ir::Var::reserved(3, "ctaid.y", tilus::int32()),
        ir::Var::reserved(4, "ctaid.z", tilus::int32())};
    TILUS_CHECK(dim >= 0 && dim < 3);
    return vars[dim];
}

bool
isTidFree(const ir::Expr &expr)
{
    return !ir::referencesVar(expr, tidVar().id());
}

namespace {

/** True when @p expr references tid and no other variable. */
bool
isTidOnly(const ir::Expr &expr)
{
    std::vector<int> ids;
    ir::collectVarIds(expr, ids);
    bool saw_tid = false;
    for (int id : ids) {
        if (id != tidVar().id())
            return false;
        saw_tid = true;
    }
    return saw_tid;
}

/**
 * Try to split @p expr into `base + tid_part` with a tid-free base and
 * a pure-tid remainder. Distributes constant multipliers over sums and
 * splits divisions by positive constants when provenDivisor shows both
 * halves stay exact (layout lowering emits (sum * w) / 8 byte
 * addresses, which must not round differently after splitting). Other
 * operators — including right-shifts — separate only when one side is
 * wholly tid-free or wholly tid-only.
 */
bool
separateTid(const ir::Expr &expr, ir::Expr *base, ir::Expr *tid_part)
{
    if (isTidFree(expr)) {
        *base = expr;
        *tid_part = nullptr;
        return true;
    }
    if (isTidOnly(expr)) {
        *base = nullptr;
        *tid_part = expr;
        return true;
    }
    if (expr->kind() == ir::ExprKind::kUnary) {
        const auto &node = static_cast<const ir::UnaryNode &>(*expr);
        if (node.op != ir::UnaryOp::kNeg)
            return false;
        ir::Expr b, t;
        if (!separateTid(node.a, &b, &t))
            return false;
        *base = b ? ir::makeUnary(ir::UnaryOp::kNeg, b) : nullptr;
        *tid_part = t ? ir::makeUnary(ir::UnaryOp::kNeg, t) : nullptr;
        return true;
    }
    if (expr->kind() != ir::ExprKind::kBinary)
        return false;
    const auto &node = static_cast<const ir::BinaryNode &>(*expr);
    switch (node.op) {
      case ir::BinaryOp::kAdd:
      case ir::BinaryOp::kSub: {
        ir::Expr ba, ta, bb, tb;
        if (!separateTid(node.a, &ba, &ta) ||
            !separateTid(node.b, &bb, &tb))
            return false;
        auto combine = [&](const ir::Expr &x,
                           const ir::Expr &y) -> ir::Expr {
            if (!x && !y)
                return nullptr;
            if (!x)
                return node.op == ir::BinaryOp::kSub
                           ? ir::makeUnary(ir::UnaryOp::kNeg, y)
                           : y;
            if (!y)
                return x;
            return ir::makeBinary(node.op, x, y);
        };
        *base = combine(ba, bb);
        *tid_part = combine(ta, tb);
        return true;
      }
      case ir::BinaryOp::kMul: {
        // A constant factor distributes over the split of the other
        // side; anything else would couple base and tid parts.
        const ir::Expr &c = node.a->kind() == ir::ExprKind::kConst
                                ? node.a
                                : node.b;
        const ir::Expr &other =
            node.a->kind() == ir::ExprKind::kConst ? node.b : node.a;
        if (c->kind() != ir::ExprKind::kConst)
            return false;
        ir::Expr b, t;
        if (!separateTid(other, &b, &t))
            return false;
        *base = b ? ir::makeBinary(ir::BinaryOp::kMul, b, c) : nullptr;
        *tid_part =
            t ? ir::makeBinary(ir::BinaryOp::kMul, t, c) : nullptr;
        return true;
      }
      case ir::BinaryOp::kDiv: {
        // (base + tid_part) / c splits only when both halves are
        // provably multiples of c (no mixed rounding).
        if (node.b->kind() != ir::ExprKind::kConst)
            return false;
        int64_t c = static_cast<const ir::ConstNode &>(*node.b).ivalue;
        if (c <= 0)
            return false;
        ir::Expr b, t;
        if (!separateTid(node.a, &b, &t))
            return false;
        if (b && ir::provenDivisor(b) % c != 0)
            return false;
        if (t && ir::provenDivisor(t) % c != 0)
            return false;
        *base = b ? ir::makeBinary(ir::BinaryOp::kDiv, b, node.b)
                  : nullptr;
        *tid_part = t ? ir::makeBinary(ir::BinaryOp::kDiv, t, node.b)
                      : nullptr;
        return true;
      }
      default:
        return false;
    }
}

} // namespace

ThreadExprParts
classifyThreadExpr(const ir::Expr &expr)
{
    ThreadExprParts parts;
    if (isTidFree(expr)) {
        parts.kind = ThreadExprKind::kUniform;
        parts.base = expr;
        return parts;
    }
    ir::Expr base, stride;
    if (ir::decomposeAffine(expr, tidVar().id(), &base, &stride)) {
        parts.kind = ThreadExprKind::kAffine;
        parts.base = std::move(base);
        parts.stride = std::move(stride);
        return parts;
    }
    ir::Expr tid_part;
    if (separateTid(expr, &base, &tid_part) && tid_part) {
        parts.kind = ThreadExprKind::kSeparable;
        parts.base = std::move(base); // may be null (pure-tid expression)
        parts.tid_part = std::move(tid_part);
        return parts;
    }
    parts.kind = ThreadExprKind::kGeneric;
    return parts;
}

const TensorDecl &
Kernel::tensor(int id) const
{
    for (const TensorDecl &t : tensors)
        if (t.id == id)
            return t;
    TILUS_PANIC("unknown LIR tensor id " << id);
}

namespace {

class KernelPrinter
{
  public:
    explicit KernelPrinter(const Kernel &kernel) : kernel_(kernel) {}

    std::string
    run()
    {
        oss_ << "// kernel " << kernel_.name << "  threads="
             << kernel_.block_threads << "  smem=" << kernel_.smem_bytes
             << "B workspace=" << kernel_.workspace_bytes << "B\n";
        for (const TensorDecl &t : kernel_.tensors) {
            oss_ << "//   tensor " << t.name << ": " << t.dtype.name()
                 << " storage=" << t.storage << " (" << t.storage_bits
                 << "b/thread) layout=" << t.layout.toString() << "\n";
        }
        body(kernel_.body, 0);
        return oss_.str();
    }

  private:
    void
    indent(int n)
    {
        for (int i = 0; i < n; ++i)
            oss_ << "  ";
    }

    void
    body(const LBody &nodes, int depth)
    {
        for (const LNode &node : nodes) {
            if (std::holds_alternative<LOp>(node.node)) {
                indent(depth);
                op(std::get<LOp>(node.node));
                oss_ << "\n";
            } else if (std::holds_alternative<LFor>(node.node)) {
                const auto &loop = std::get<LFor>(node.node);
                indent(depth);
                oss_ << "for " << loop.var.name() << " in range("
                     << ir::toString(loop.extent) << "):\n";
                body(*loop.body, depth + 1);
            } else if (std::holds_alternative<LWhile>(node.node)) {
                const auto &loop = std::get<LWhile>(node.node);
                indent(depth);
                oss_ << "while " << ir::toString(loop.cond) << ":\n";
                body(*loop.body, depth + 1);
            } else if (std::holds_alternative<LAssign>(node.node)) {
                const auto &assign = std::get<LAssign>(node.node);
                indent(depth);
                oss_ << assign.var.name() << " = "
                     << ir::toString(assign.value) << "\n";
            } else if (std::holds_alternative<LBreak>(node.node)) {
                indent(depth);
                oss_ << "break\n";
            } else if (std::holds_alternative<LContinue>(node.node)) {
                indent(depth);
                oss_ << "continue\n";
            } else {
                const auto &branch = std::get<LIf>(node.node);
                indent(depth);
                oss_ << "if " << ir::toString(branch.cond) << ":\n";
                body(*branch.then_body, depth + 1);
                if (branch.else_body) {
                    indent(depth);
                    oss_ << "else:\n";
                    body(*branch.else_body, depth + 1);
                }
            }
        }
    }

    std::string
    name(int tensor_id)
    {
        return kernel_.tensor(tensor_id).name;
    }

    void
    op(const LOp &lop)
    {
        std::visit(
            [&](const auto &o) {
                using T = std::decay_t<decltype(o)>;
                if constexpr (std::is_same_v<T, LoadGlobalVec>) {
                    oss_ << "ldg.b" << o.bytes * 8 << " " << name(o.dst_tensor)
                         << "+" << o.dst_byte << ", ["
                         << ir::toString(o.addr) << "]";
                    if (o.pred)
                        oss_ << " @" << ir::toString(o.pred);
                } else if constexpr (std::is_same_v<T, StoreGlobalVec>) {
                    oss_ << "stg.b" << o.bytes * 8 << " ["
                         << ir::toString(o.addr) << "], "
                         << name(o.src_tensor) << "+" << o.src_byte;
                    if (o.pred)
                        oss_ << " @" << ir::toString(o.pred);
                } else if constexpr (std::is_same_v<T, LoadGlobalBits>) {
                    oss_ << "ldg.bits" << o.bits << " " << name(o.dst_tensor)
                         << "@" << o.dst_bit << ", [bit "
                         << ir::toString(o.bit_addr) << "]";
                } else if constexpr (std::is_same_v<T, StoreGlobalBits>) {
                    oss_ << "stg.bits" << o.bits << " [bit "
                         << ir::toString(o.bit_addr) << "], "
                         << name(o.src_tensor) << "@" << o.src_bit;
                } else if constexpr (std::is_same_v<T, LoadSharedVec>) {
                    oss_ << (o.via_ldmatrix ? "ldmatrix" : "lds") << ".b"
                         << o.bytes * 8 << " " << name(o.dst_tensor) << "+"
                         << o.dst_byte << ", [" << ir::toString(o.addr)
                         << "]";
                } else if constexpr (std::is_same_v<T, StoreSharedVec>) {
                    oss_ << "sts.b" << o.bytes * 8 << " ["
                         << ir::toString(o.addr) << "], "
                         << name(o.src_tensor) << "+" << o.src_byte;
                } else if constexpr (std::is_same_v<T, CpAsync>) {
                    oss_ << "cp.async.cg.b" << o.bytes * 8 << " ["
                         << ir::toString(o.smem_addr) << "], ["
                         << ir::toString(o.gmem_addr) << "]";
                    if (o.pred)
                        oss_ << " @" << ir::toString(o.pred);
                } else if constexpr (std::is_same_v<T, CpAsyncCommit>) {
                    oss_ << "cp.async.commit_group";
                } else if constexpr (std::is_same_v<T, CpAsyncWait>) {
                    oss_ << "cp.async.wait_group " << o.n;
                } else if constexpr (std::is_same_v<T, BarSync>) {
                    oss_ << "bar.sync";
                } else if constexpr (std::is_same_v<T, MmaTile>) {
                    oss_ << "mma.m" << o.m << "n" << o.n << "k" << o.k << " "
                         << name(o.d_tensor) << "[" << o.d_base << "], "
                         << name(o.a_tensor) << "[" << o.a_base << "], "
                         << name(o.b_tensor) << "[" << o.b_base << "], "
                         << name(o.c_tensor) << "[" << o.c_base << "]";
                } else if constexpr (std::is_same_v<T, SimtDot>) {
                    oss_ << "simt.dot " << name(o.d_tensor) << " += "
                         << name(o.a_tensor) << " x " << name(o.b_tensor)
                         << " (" << o.macs.size() << " fma/thread)";
                } else if constexpr (std::is_same_v<T, EltwiseBinary>) {
                    oss_ << "elt.bin op" << o.op << " " << name(o.dst_tensor)
                         << ", " << name(o.a_tensor) << ", "
                         << name(o.b_tensor)
                         << (o.b_slot_map.empty() ? "" : " (broadcast)");
                } else if constexpr (std::is_same_v<T, EltwiseScalar>) {
                    oss_ << "elt.scalar op" << o.op << " "
                         << name(o.dst_tensor) << ", " << name(o.a_tensor)
                         << ", " << ir::toString(o.scalar);
                } else if constexpr (std::is_same_v<T, EltwiseUnary>) {
                    oss_ << "elt.unary op" << o.op << " "
                         << name(o.dst_tensor) << ", " << name(o.a_tensor);
                } else if constexpr (std::is_same_v<T, CastTensor>) {
                    oss_ << (o.vectorized ? "vcvt " : "cvt ")
                         << name(o.dst_tensor) << ", " << name(o.src_tensor);
                } else if constexpr (std::is_same_v<T, InitTensor>) {
                    oss_ << "init " << name(o.dst_tensor) << ", " << o.value;
                } else if constexpr (std::is_same_v<T, PrintTensor>) {
                    oss_ << "print " << name(o.tensor);
                } else if constexpr (std::is_same_v<T, ExitOp>) {
                    oss_ << "exit";
                }
            },
            lop);
    }

    const Kernel &kernel_;
    std::ostringstream oss_;
};

} // namespace

std::string
printKernel(const Kernel &kernel)
{
    KernelPrinter printer(kernel);
    return printer.run();
}

} // namespace lir
} // namespace tilus
