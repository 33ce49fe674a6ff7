#ifndef DIABLO_PLAN_ROW_PROGRAM_H_
#define DIABLO_PLAN_ROW_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "comp/comp.h"
#include "plan/plan.h"
#include "runtime/value.h"

namespace diablo::plan {

/// A comprehension expression compiled once, at plan time, against the
/// schema of the rows it will see. It is the plan's only expression
/// evaluator: every per-row closure of ExecutePlan (let, filter, iterate,
/// join keys, group and reduce keys, yield) and every driver-side
/// evaluation runs one.
///
///  - Each variable resolves when the program is compiled: to the first
///    schema slot of that name, else to a driver scalar, copied into the
///    constant pool, else to an array. Rows never look a name up.
///  - Literals are pre-built Values and builtin names are pre-resolved.
///  - Slots, constants and tuple/record projections borrow a pointer into
///    the row or the pool; only computed results are written.
///  - A Status is built only when evaluation fails.
///
/// A program is immutable once compiled, so one instance may be evaluated
/// from many engine threads at once.
class RowProgram {
 public:
  enum class Context {
    /// Engine closures. Nested comprehensions, array merges and array
    /// variables compile to nodes that raise when they are evaluated.
    kRow,
    /// The driver. Those nodes plan, execute and collect through the
    /// ExecState, which must outlive the program.
    kDriver,
  };

  /// Compiles `e` against rows laid out as `schema`.
  static RowProgram Compile(const comp::CExprPtr& e,
                            const std::vector<std::string>& schema,
                            const ExecState& state,
                            Context context = Context::kRow);

  /// Compiles a join key: the single expression itself, or the tuple of
  /// `exprs` when there are several.
  static RowProgram CompileKey(const std::vector<comp::CExprPtr>& exprs,
                               const std::vector<std::string>& schema,
                               const ExecState& state);

  /// Evaluates against `row`. The result points into `row`, into the
  /// program's constants or at `*scratch`; it stays valid while those
  /// do. Returns nullptr and sets `*error` when evaluation fails.
  const runtime::Value* Eval(const runtime::ValueVec& row,
                             runtime::Value* scratch, Status* error) const;

  /// Eval, returning an owned value.
  StatusOr<runtime::Value> Run(const runtime::ValueVec& row) const;

  /// True when the expression is `range(lo, hi)`, whose elements
  /// EvalRange yields without building the bag.
  bool is_range() const;

  /// For a range program: the inclusive bounds, with the same checks and
  /// messages as building the bag.
  Status EvalRange(const runtime::ValueVec& row, int64_t* lo,
                   int64_t* hi) const;

 private:
  enum class Op : uint8_t {
    kSlot,    ///< borrow row[index]
    kConst,   ///< borrow consts_[index]
    kRaise,   ///< fail with `text`
    kBin,     ///< kids[0] op kids[1]; && and || short-circuit
    kUn,
    kTuple,
    kRecord,  ///< field names in `names`
    kProj,    ///< field `text` of kids[0], or its tuple element `index`
              ///< (1-based; 0 when `text` names none)
    kCall,
    kReduce,
    kRange,
    kBag,
    // Driver context only.
    kArray,         ///< collect the array `text`
    kNested,        ///< plan, execute and collect `expr`
    kReduceNested,  ///< distributed reduce of the comprehension `expr`
    kMerge,         ///< evaluate and collect the merge `expr`
  };
  enum class Builtin : uint8_t {
    kInRange, kSqrt, kAbs, kExp, kLog, kPow, kFloor, kUnknown,
  };
  struct Node {
    explicit Node(Op o) : op(o) {}
    Op op;
    runtime::BinOp bin = runtime::BinOp::kAdd;
    runtime::UnOp un = runtime::UnOp::kNeg;
    Builtin builtin = Builtin::kUnknown;
    int32_t index = 0;
    std::vector<int32_t> kids;
    std::string text;
    std::vector<std::string> names;
    comp::CExprPtr expr;
  };
  class Compiler;

  const runtime::Value* EvalNode(int32_t n, const runtime::ValueVec& row,
                                 runtime::Value* out, Status* error) const;
  const runtime::Value* EvalCall(const Node& node,
                                 const runtime::ValueVec& row,
                                 runtime::Value* out, Status* error) const;
  const runtime::Value* EvalDriver(const Node& node, runtime::Value* out,
                                   Status* error) const;
  Status RangeBounds(const Node& node, const runtime::ValueVec& row,
                     int64_t* lo, int64_t* hi) const;

  std::vector<Node> nodes_;
  std::vector<runtime::Value> consts_;
  int32_t root_ = 0;
  const ExecState* state_ = nullptr;  ///< kDriver only
};

}  // namespace diablo::plan

#endif  // DIABLO_PLAN_ROW_PROGRAM_H_
