#include "cache/serialize.h"

#include <cstring>
#include <map>

#include "cache/codec.h"

namespace tilus {
namespace cache {

namespace {

/// @name Wire tags.
/// @{

/** Stable LOp tags (independent of std::variant ordering). */
enum OpTag : uint8_t
{
    kOpLoadGlobalVec = 0,
    kOpStoreGlobalVec,
    kOpLoadGlobalBits,
    kOpStoreGlobalBits,
    kOpLoadSharedVec,
    kOpStoreSharedVec,
    kOpCpAsync,
    kOpCpAsyncCommit,
    kOpCpAsyncWait,
    kOpBarSync,
    kOpMmaTile,
    kOpSimtDot,
    kOpEltwiseBinary,
    kOpEltwiseScalar,
    kOpEltwiseUnary,
    kOpCastTensor,
    kOpInitTensor,
    kOpPrintTensor,
    kOpExit,
};

enum NodeTag : uint8_t
{
    kNodeOp = 0,
    kNodeFor,
    kNodeIf,
    kNodeWhile,
    kNodeAssign,
    kNodeBreak,
    kNodeContinue,
};

enum VarTag : uint8_t
{
    kVarRef = 0,  ///< u32 index of an already-interned variable
    kVarDef,      ///< name + dtype; interned at the next free index
    kVarSpecial,  ///< u8 role code, rebound to the process singleton
};

enum SpecialVar : uint8_t
{
    kSpecialTid = 0,
    kSpecialWorkspace,
    kSpecialBlockIdx0,
    kSpecialBlockIdx1,
    kSpecialBlockIdx2,
};

constexpr uint8_t kNullExpr = 0xff;
/// @}

class Writer
{
  public:
    void u8(uint8_t v) { putU8(out_, v); }
    void u32(uint32_t v) { putU32(out_, v); }
    void u64(uint64_t v) { putU64(out_, v); }
    void i64(int64_t v) { putI64(out_, v); }
    void f64(double v) { putF64(out_, v); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out_.append(s);
    }

    void
    dtype(const DataType &t)
    {
        u8(static_cast<uint8_t>(t.kind()));
        u8(static_cast<uint8_t>(t.bits()));
        u8(static_cast<uint8_t>(t.exponentBits()));
        u8(static_cast<uint8_t>(t.mantissaBits()));
    }

    void
    intVec(const std::vector<int64_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (int64_t x : v)
            i64(x);
    }

    void
    int32Vec(const std::vector<int> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (int x : v)
            i64(x);
    }

    void
    layout(const Layout &l)
    {
        intVec(l.shape());
        intVec(l.modeShape());
        int32Vec(l.modeDim());
        int32Vec(l.spatialModes());
        int32Vec(l.localModes());
        str(l.label());
    }

    void
    var(const ir::VarNode &node)
    {
        uint8_t special;
        if (isSpecial(node.id, &special)) {
            u8(kVarSpecial);
            u8(special);
            return;
        }
        auto it = interned_.find(node.id);
        if (it != interned_.end()) {
            u8(kVarRef);
            u32(it->second);
            return;
        }
        interned_.emplace(node.id,
                          static_cast<uint32_t>(interned_.size()));
        u8(kVarDef);
        str(node.name);
        dtype(node.dtype());
    }

    void var(const ir::Var &v) { var(*v.node()); }

    void
    expr(const ir::Expr &e)
    {
        if (!e) {
            u8(kNullExpr);
            return;
        }
        u8(static_cast<uint8_t>(e->kind()));
        switch (e->kind()) {
          case ir::ExprKind::kConst: {
            const auto &c = static_cast<const ir::ConstNode &>(*e);
            dtype(c.dtype());
            i64(c.ivalue);
            f64(c.fvalue);
            break;
          }
          case ir::ExprKind::kVar:
            var(static_cast<const ir::VarNode &>(*e));
            break;
          case ir::ExprKind::kUnary: {
            const auto &n = static_cast<const ir::UnaryNode &>(*e);
            u8(static_cast<uint8_t>(n.op));
            expr(n.a);
            break;
          }
          case ir::ExprKind::kBinary: {
            const auto &n = static_cast<const ir::BinaryNode &>(*e);
            u8(static_cast<uint8_t>(n.op));
            dtype(n.dtype());
            expr(n.a);
            expr(n.b);
            break;
          }
          case ir::ExprKind::kSelect: {
            const auto &n = static_cast<const ir::SelectNode &>(*e);
            expr(n.cond);
            expr(n.on_true);
            expr(n.on_false);
            break;
          }
        }
    }

    void
    exprVec(const std::vector<ir::Expr> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (const ir::Expr &e : v)
            expr(e);
    }

    std::string take() { return std::move(out_); }

    static bool
    isSpecial(int id, uint8_t *code)
    {
        if (id == lir::tidVar().id()) {
            *code = kSpecialTid;
            return true;
        }
        if (id == lir::workspaceVar().id()) {
            *code = kSpecialWorkspace;
            return true;
        }
        for (int d = 0; d < 3; ++d) {
            if (id == lir::blockIdxVar(d).id()) {
                *code = static_cast<uint8_t>(kSpecialBlockIdx0 + d);
                return true;
            }
        }
        return false;
    }

  private:
    std::string out_;
    std::map<int, uint32_t> interned_; ///< var id -> stream index
};

class Reader
{
  public:
    explicit Reader(const std::string &data) : data_(data) {}

    uint8_t u8() { return word<uint8_t>(); }
    uint32_t u32() { return word<uint32_t>(); }
    uint64_t u64() { return word<uint64_t>(); }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::string
    str()
    {
        uint32_t size = u32();
        need(size);
        std::string s = data_.substr(pos_, size);
        pos_ += size;
        return s;
    }

    DataType
    dtype()
    {
        uint8_t kind = u8();
        int bits = u8();
        int exponent = u8();
        int mantissa = u8();
        try {
            switch (static_cast<TypeKind>(kind)) {
              case TypeKind::kInt:
                return DataType::makeInt(bits);
              case TypeKind::kUInt:
                return DataType::makeUInt(bits);
              case TypeKind::kFloat:
                return DataType::makeFloat(bits, exponent, mantissa);
            }
        } catch (const TilusError &e) {
            fail(std::string("bad data type: ") + e.what());
        }
        fail("bad data-type kind");
    }

    std::vector<int64_t>
    intVec()
    {
        uint32_t n = count(8);
        std::vector<int64_t> v(n);
        for (uint32_t i = 0; i < n; ++i)
            v[i] = i64();
        return v;
    }

    std::vector<int>
    int32Vec()
    {
        uint32_t n = count(8);
        std::vector<int> v(n);
        for (uint32_t i = 0; i < n; ++i)
            v[i] = static_cast<int>(i64());
        return v;
    }

    Layout
    layout()
    {
        std::vector<int64_t> shape = intVec();
        std::vector<int64_t> mode_shape = intVec();
        std::vector<int> mode_dim = int32Vec();
        std::vector<int> spatial = int32Vec();
        std::vector<int> local = int32Vec();
        std::string label = str();
        try {
            return Layout::make(std::move(shape), std::move(mode_shape),
                                std::move(mode_dim), std::move(spatial),
                                std::move(local), std::move(label));
        } catch (const TilusError &e) {
            fail(std::string("bad layout: ") + e.what());
        }
    }

    ir::Var
    var()
    {
        switch (u8()) {
          case kVarRef: {
            uint32_t index = u32();
            if (index >= vars_.size())
                fail("variable reference out of range");
            return vars_[index];
          }
          case kVarDef: {
            std::string name = str();
            DataType dt = dtype();
            vars_.push_back(ir::Var::make(std::move(name), dt));
            return vars_.back();
          }
          case kVarSpecial:
            switch (u8()) {
              case kSpecialTid:
                return lir::tidVar();
              case kSpecialWorkspace:
                return lir::workspaceVar();
              case kSpecialBlockIdx0:
                return lir::blockIdxVar(0);
              case kSpecialBlockIdx1:
                return lir::blockIdxVar(1);
              case kSpecialBlockIdx2:
                return lir::blockIdxVar(2);
              default:
                fail("unknown special variable");
            }
          default:
            fail("bad variable tag");
        }
    }

    ir::Expr
    expr()
    {
        uint8_t kind = u8();
        if (kind == kNullExpr)
            return nullptr;
        switch (static_cast<ir::ExprKind>(kind)) {
          case ir::ExprKind::kConst: {
            DataType dt = dtype();
            int64_t ivalue = i64();
            double fvalue = f64();
            // The two ConstNode constructors couple the fields; pick the
            // one reproducing both stored values bit-exactly.
            uint64_t from_int, stored;
            double as_double = static_cast<double>(ivalue);
            std::memcpy(&from_int, &as_double, 8);
            std::memcpy(&stored, &fvalue, 8);
            if (from_int == stored)
                return std::make_shared<ir::ConstNode>(ivalue, dt);
            return std::make_shared<ir::ConstNode>(fvalue, dt);
          }
          case ir::ExprKind::kVar:
            return var();
          case ir::ExprKind::kUnary: {
            uint8_t op = u8();
            ir::Expr a = nonNull(expr(), "unary operand");
            return std::make_shared<ir::UnaryNode>(
                static_cast<ir::UnaryOp>(op), std::move(a));
          }
          case ir::ExprKind::kBinary: {
            uint8_t op = u8();
            DataType dt = dtype();
            ir::Expr a = nonNull(expr(), "binary lhs");
            ir::Expr b = nonNull(expr(), "binary rhs");
            return std::make_shared<ir::BinaryNode>(
                static_cast<ir::BinaryOp>(op), std::move(a), std::move(b),
                dt);
          }
          case ir::ExprKind::kSelect: {
            ir::Expr cond = nonNull(expr(), "select cond");
            ir::Expr t = nonNull(expr(), "select on_true");
            ir::Expr f = nonNull(expr(), "select on_false");
            return std::make_shared<ir::SelectNode>(
                std::move(cond), std::move(t), std::move(f));
          }
        }
        fail("bad expression kind");
    }

    std::vector<ir::Expr>
    exprVec()
    {
        uint32_t n = count(1);
        std::vector<ir::Expr> v(n);
        for (uint32_t i = 0; i < n; ++i)
            v[i] = expr();
        return v;
    }

    /** A count whose elements occupy at least min_bytes each; rejects
        counts the remaining payload cannot possibly hold (corrupted
        lengths must not trigger giant allocations). */
    uint32_t
    count(size_t min_bytes)
    {
        uint32_t n = u32();
        if (static_cast<uint64_t>(n) * min_bytes >
            data_.size() - pos_)
            fail("count exceeds payload size");
        return n;
    }

    bool atEnd() const { return pos_ == data_.size(); }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CacheFormatError("kernel payload at byte " +
                               std::to_string(pos_) + ": " + what);
    }

  private:
    ir::Expr
    nonNull(ir::Expr e, const char *what)
    {
        if (!e)
            fail(std::string("unexpected null ") + what);
        return e;
    }

    void
    need(size_t n) const
    {
        if (n > data_.size() - pos_)
            fail("truncated payload");
    }

    template <typename T>
    T
    word()
    {
        need(sizeof(T));
        const T v = loadLE<T>(data_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }

    const std::string &data_;
    size_t pos_ = 0;
    std::vector<ir::Var> vars_; ///< interned in definition order
};

/// @name Leaf-operation encoding.
/// @{

struct OpWriter
{
    Writer &w;

    void
    operator()(const lir::LoadGlobalVec &op) const
    {
        w.u8(kOpLoadGlobalVec);
        w.i64(op.dst_tensor);
        w.i64(op.dst_byte);
        w.expr(op.addr);
        w.i64(op.bytes);
        w.expr(op.pred);
        w.i64(op.global_id);
    }
    void
    operator()(const lir::StoreGlobalVec &op) const
    {
        w.u8(kOpStoreGlobalVec);
        w.i64(op.src_tensor);
        w.i64(op.src_byte);
        w.expr(op.addr);
        w.i64(op.bytes);
        w.expr(op.pred);
        w.i64(op.global_id);
    }
    void
    operator()(const lir::LoadGlobalBits &op) const
    {
        w.u8(kOpLoadGlobalBits);
        w.i64(op.dst_tensor);
        w.i64(op.dst_bit);
        w.expr(op.bit_addr);
        w.i64(op.bits);
        w.i64(op.global_id);
    }
    void
    operator()(const lir::StoreGlobalBits &op) const
    {
        w.u8(kOpStoreGlobalBits);
        w.i64(op.src_tensor);
        w.i64(op.src_bit);
        w.expr(op.bit_addr);
        w.i64(op.bits);
        w.i64(op.global_id);
    }
    void
    operator()(const lir::LoadSharedVec &op) const
    {
        w.u8(kOpLoadSharedVec);
        w.i64(op.dst_tensor);
        w.i64(op.dst_byte);
        w.expr(op.addr);
        w.i64(op.bytes);
        w.u8(op.via_ldmatrix);
    }
    void
    operator()(const lir::StoreSharedVec &op) const
    {
        w.u8(kOpStoreSharedVec);
        w.i64(op.src_tensor);
        w.i64(op.src_byte);
        w.expr(op.addr);
        w.i64(op.bytes);
        w.expr(op.pred);
    }
    void
    operator()(const lir::CpAsync &op) const
    {
        w.u8(kOpCpAsync);
        w.expr(op.smem_addr);
        w.expr(op.gmem_addr);
        w.i64(op.bytes);
        w.expr(op.pred);
        w.expr(op.issue_pred);
        w.i64(op.global_id);
    }
    void operator()(const lir::CpAsyncCommit &) const
    {
        w.u8(kOpCpAsyncCommit);
    }
    void
    operator()(const lir::CpAsyncWait &op) const
    {
        w.u8(kOpCpAsyncWait);
        w.i64(op.n);
    }
    void operator()(const lir::BarSync &) const { w.u8(kOpBarSync); }
    void
    operator()(const lir::MmaTile &op) const
    {
        w.u8(kOpMmaTile);
        w.i64(op.a_tensor);
        w.i64(op.b_tensor);
        w.i64(op.c_tensor);
        w.i64(op.d_tensor);
        w.i64(op.m);
        w.i64(op.n);
        w.i64(op.k);
        w.i64(op.a_base);
        w.i64(op.b_base);
        w.i64(op.c_base);
        w.i64(op.d_base);
    }
    void
    operator()(const lir::SimtDot &op) const
    {
        w.u8(kOpSimtDot);
        w.i64(op.a_tensor);
        w.i64(op.b_tensor);
        w.i64(op.c_tensor);
        w.i64(op.d_tensor);
        w.u32(static_cast<uint32_t>(op.macs.size()));
        for (const auto &mac : op.macs)
            for (int32_t slot : mac)
                w.i64(slot);
    }
    void
    operator()(const lir::EltwiseBinary &op) const
    {
        w.u8(kOpEltwiseBinary);
        w.i64(op.dst_tensor);
        w.i64(op.a_tensor);
        w.i64(op.b_tensor);
        w.i64(op.op);
        w.int32Vec(op.b_slot_map);
    }
    void
    operator()(const lir::EltwiseScalar &op) const
    {
        w.u8(kOpEltwiseScalar);
        w.i64(op.dst_tensor);
        w.i64(op.a_tensor);
        w.i64(op.op);
        w.expr(op.scalar);
    }
    void
    operator()(const lir::EltwiseUnary &op) const
    {
        w.u8(kOpEltwiseUnary);
        w.i64(op.dst_tensor);
        w.i64(op.a_tensor);
        w.i64(op.op);
    }
    void
    operator()(const lir::CastTensor &op) const
    {
        w.u8(kOpCastTensor);
        w.i64(op.dst_tensor);
        w.i64(op.src_tensor);
        w.u8(op.vectorized);
    }
    void
    operator()(const lir::InitTensor &op) const
    {
        w.u8(kOpInitTensor);
        w.i64(op.dst_tensor);
        w.f64(op.value);
    }
    void
    operator()(const lir::PrintTensor &op) const
    {
        w.u8(kOpPrintTensor);
        w.i64(op.tensor);
    }
    void operator()(const lir::ExitOp &) const { w.u8(kOpExit); }
};

lir::LOp
readOp(Reader &r)
{
    switch (r.u8()) {
      case kOpLoadGlobalVec: {
        lir::LoadGlobalVec op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.dst_byte = r.i64();
        op.addr = r.expr();
        op.bytes = static_cast<int>(r.i64());
        op.pred = r.expr();
        op.global_id = static_cast<int>(r.i64());
        return op;
      }
      case kOpStoreGlobalVec: {
        lir::StoreGlobalVec op;
        op.src_tensor = static_cast<int>(r.i64());
        op.src_byte = r.i64();
        op.addr = r.expr();
        op.bytes = static_cast<int>(r.i64());
        op.pred = r.expr();
        op.global_id = static_cast<int>(r.i64());
        return op;
      }
      case kOpLoadGlobalBits: {
        lir::LoadGlobalBits op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.dst_bit = r.i64();
        op.bit_addr = r.expr();
        op.bits = static_cast<int>(r.i64());
        op.global_id = static_cast<int>(r.i64());
        return op;
      }
      case kOpStoreGlobalBits: {
        lir::StoreGlobalBits op;
        op.src_tensor = static_cast<int>(r.i64());
        op.src_bit = r.i64();
        op.bit_addr = r.expr();
        op.bits = static_cast<int>(r.i64());
        op.global_id = static_cast<int>(r.i64());
        return op;
      }
      case kOpLoadSharedVec: {
        lir::LoadSharedVec op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.dst_byte = r.i64();
        op.addr = r.expr();
        op.bytes = static_cast<int>(r.i64());
        op.via_ldmatrix = r.u8() != 0;
        return op;
      }
      case kOpStoreSharedVec: {
        lir::StoreSharedVec op;
        op.src_tensor = static_cast<int>(r.i64());
        op.src_byte = r.i64();
        op.addr = r.expr();
        op.bytes = static_cast<int>(r.i64());
        op.pred = r.expr();
        return op;
      }
      case kOpCpAsync: {
        lir::CpAsync op;
        op.smem_addr = r.expr();
        op.gmem_addr = r.expr();
        op.bytes = static_cast<int>(r.i64());
        op.pred = r.expr();
        op.issue_pred = r.expr();
        op.global_id = static_cast<int>(r.i64());
        return op;
      }
      case kOpCpAsyncCommit:
        return lir::CpAsyncCommit{};
      case kOpCpAsyncWait: {
        lir::CpAsyncWait op;
        op.n = static_cast<int>(r.i64());
        return op;
      }
      case kOpBarSync:
        return lir::BarSync{};
      case kOpMmaTile: {
        lir::MmaTile op;
        op.a_tensor = static_cast<int>(r.i64());
        op.b_tensor = static_cast<int>(r.i64());
        op.c_tensor = static_cast<int>(r.i64());
        op.d_tensor = static_cast<int>(r.i64());
        op.m = static_cast<int>(r.i64());
        op.n = static_cast<int>(r.i64());
        op.k = static_cast<int>(r.i64());
        op.a_base = r.i64();
        op.b_base = r.i64();
        op.c_base = r.i64();
        op.d_base = r.i64();
        return op;
      }
      case kOpSimtDot: {
        lir::SimtDot op;
        op.a_tensor = static_cast<int>(r.i64());
        op.b_tensor = static_cast<int>(r.i64());
        op.c_tensor = static_cast<int>(r.i64());
        op.d_tensor = static_cast<int>(r.i64());
        uint32_t n = r.count(24);
        op.macs.resize(n);
        for (uint32_t i = 0; i < n; ++i)
            for (int j = 0; j < 3; ++j)
                op.macs[i][j] = static_cast<int32_t>(r.i64());
        return op;
      }
      case kOpEltwiseBinary: {
        lir::EltwiseBinary op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.a_tensor = static_cast<int>(r.i64());
        op.b_tensor = static_cast<int>(r.i64());
        op.op = static_cast<int>(r.i64());
        std::vector<int> slots = r.int32Vec();
        op.b_slot_map.assign(slots.begin(), slots.end());
        return op;
      }
      case kOpEltwiseScalar: {
        lir::EltwiseScalar op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.a_tensor = static_cast<int>(r.i64());
        op.op = static_cast<int>(r.i64());
        op.scalar = r.expr();
        return op;
      }
      case kOpEltwiseUnary: {
        lir::EltwiseUnary op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.a_tensor = static_cast<int>(r.i64());
        op.op = static_cast<int>(r.i64());
        return op;
      }
      case kOpCastTensor: {
        lir::CastTensor op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.src_tensor = static_cast<int>(r.i64());
        op.vectorized = r.u8() != 0;
        return op;
      }
      case kOpInitTensor: {
        lir::InitTensor op;
        op.dst_tensor = static_cast<int>(r.i64());
        op.value = r.f64();
        return op;
      }
      case kOpPrintTensor: {
        lir::PrintTensor op;
        op.tensor = static_cast<int>(r.i64());
        return op;
      }
      case kOpExit:
        return lir::ExitOp{};
      default:
        r.fail("unknown leaf-operation tag");
    }
}
/// @}

/// @name Structured body encoding.
/// @{

void writeBody(Writer &w, const lir::LBody &body);
lir::LBody readBody(Reader &r);

void
writeNode(Writer &w, const lir::LNode &node)
{
    struct NodeWriter
    {
        Writer &w;
        void
        operator()(const lir::LOp &op) const
        {
            w.u8(kNodeOp);
            std::visit(OpWriter{w}, op);
        }
        void
        operator()(const lir::LFor &loop) const
        {
            w.u8(kNodeFor);
            w.var(loop.var);
            w.expr(loop.extent);
            writeBody(w, *loop.body);
        }
        void
        operator()(const lir::LIf &branch) const
        {
            w.u8(kNodeIf);
            w.expr(branch.cond);
            writeBody(w, *branch.then_body);
            w.u8(branch.else_body != nullptr);
            if (branch.else_body)
                writeBody(w, *branch.else_body);
        }
        void
        operator()(const lir::LWhile &loop) const
        {
            w.u8(kNodeWhile);
            w.expr(loop.cond);
            writeBody(w, *loop.body);
        }
        void
        operator()(const lir::LAssign &assign) const
        {
            w.u8(kNodeAssign);
            w.var(assign.var);
            w.expr(assign.value);
        }
        void operator()(const lir::LBreak &) const { w.u8(kNodeBreak); }
        void operator()(const lir::LContinue &) const
        {
            w.u8(kNodeContinue);
        }
    };
    std::visit(NodeWriter{w}, node.node);
}

lir::LNode
readNode(Reader &r)
{
    switch (r.u8()) {
      case kNodeOp:
        return lir::LNode{readOp(r)};
      case kNodeFor: {
        lir::LFor loop;
        loop.var = r.var();
        loop.extent = r.expr();
        loop.body = std::make_shared<lir::LBody>(readBody(r));
        return lir::LNode{std::move(loop)};
      }
      case kNodeIf: {
        lir::LIf branch;
        branch.cond = r.expr();
        branch.then_body = std::make_shared<lir::LBody>(readBody(r));
        if (r.u8() != 0)
            branch.else_body = std::make_shared<lir::LBody>(readBody(r));
        return lir::LNode{std::move(branch)};
      }
      case kNodeWhile: {
        lir::LWhile loop;
        loop.cond = r.expr();
        loop.body = std::make_shared<lir::LBody>(readBody(r));
        return lir::LNode{std::move(loop)};
      }
      case kNodeAssign: {
        lir::LAssign assign;
        assign.var = r.var();
        assign.value = r.expr();
        return lir::LNode{std::move(assign)};
      }
      case kNodeBreak:
        return lir::LNode{lir::LBreak{}};
      case kNodeContinue:
        return lir::LNode{lir::LContinue{}};
      default:
        r.fail("unknown body-node tag");
    }
}

void
writeBody(Writer &w, const lir::LBody &body)
{
    w.u32(static_cast<uint32_t>(body.size()));
    for (const lir::LNode &node : body)
        writeNode(w, node);
}

lir::LBody
readBody(Reader &r)
{
    uint32_t n = r.count(1);
    lir::LBody body;
    body.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        body.push_back(readNode(r));
    return body;
}
/// @}

} // namespace

std::string
serializeKernel(const lir::Kernel &kernel)
{
    Writer w;
    w.str(kernel.name);
    w.i64(kernel.sm_arch);
    w.i64(kernel.block_threads);
    w.u32(static_cast<uint32_t>(kernel.params.size()));
    for (const ir::Var &p : kernel.params)
        w.var(p);
    w.exprVec(kernel.grid);
    w.u32(static_cast<uint32_t>(kernel.block_index_vars.size()));
    for (const ir::Var &v : kernel.block_index_vars)
        w.var(v);
    w.expr(kernel.main_loop_extent);
    w.i64(kernel.smem_bytes);
    w.i64(kernel.workspace_bytes);
    w.u32(static_cast<uint32_t>(kernel.tensors.size()));
    for (const lir::TensorDecl &t : kernel.tensors) {
        w.i64(t.id);
        w.str(t.name);
        w.dtype(t.dtype);
        w.layout(t.layout);
        w.i64(t.storage);
        w.i64(t.storage_bits);
    }
    w.u32(static_cast<uint32_t>(kernel.globals.size()));
    for (const lir::GlobalDecl &g : kernel.globals) {
        w.i64(g.id);
        w.str(g.name);
        w.dtype(g.dtype);
        w.exprVec(g.shape);
    }
    w.i64(kernel.num_storages);
    writeBody(w, kernel.body);
    return w.take();
}

lir::Kernel
deserializeKernel(const std::string &payload)
{
    Reader r(payload);
    lir::Kernel kernel;
    kernel.name = r.str();
    kernel.sm_arch = static_cast<int>(r.i64());
    kernel.block_threads = static_cast<int>(r.i64());
    uint32_t num_params = r.count(2);
    kernel.params.reserve(num_params);
    for (uint32_t i = 0; i < num_params; ++i)
        kernel.params.push_back(r.var());
    kernel.grid = r.exprVec();
    uint32_t num_bvars = r.count(2);
    kernel.block_index_vars.reserve(num_bvars);
    for (uint32_t i = 0; i < num_bvars; ++i)
        kernel.block_index_vars.push_back(r.var());
    kernel.main_loop_extent = r.expr();
    kernel.smem_bytes = r.i64();
    kernel.workspace_bytes = r.i64();
    uint32_t num_tensors = r.count(8);
    kernel.tensors.reserve(num_tensors);
    for (uint32_t i = 0; i < num_tensors; ++i) {
        lir::TensorDecl t;
        t.id = static_cast<int>(r.i64());
        t.name = r.str();
        t.dtype = r.dtype();
        t.layout = r.layout();
        t.storage = static_cast<int>(r.i64());
        t.storage_bits = r.i64();
        kernel.tensors.push_back(std::move(t));
    }
    uint32_t num_globals = r.count(8);
    kernel.globals.reserve(num_globals);
    for (uint32_t i = 0; i < num_globals; ++i) {
        lir::GlobalDecl g;
        g.id = static_cast<int>(r.i64());
        g.name = r.str();
        g.dtype = r.dtype();
        g.shape = r.exprVec();
        kernel.globals.push_back(std::move(g));
    }
    kernel.num_storages = static_cast<int>(r.i64());
    kernel.body = readBody(r);
    if (!r.atEnd())
        r.fail("trailing bytes after kernel body");
    return kernel;
}

} // namespace cache
} // namespace tilus
