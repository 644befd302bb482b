// The Cuneiform-lite front-end: an iterative WorkflowSource.
//
// Evaluation model (Sec. 3.3 of the paper): the interpreter reduces the
// program as far as its data allows. Each concrete black-box application
// becomes a task; its results are unknown until the driver runs it, so the
// application's value is *pending*. Evaluation stops on a pending value in
// exactly three places, and each stop is recorded as a *suspension*:
//   - a task combination with a pending argument (including an
//     application whose map/cross shape still depends on a pending
//     argument),
//   - an `if` whose condition is pending,
//   - a concatenation with a pending part.
// A suspension keeps what it needs to continue — the expression, its
// (shared, immutable) environment or argument values, its evaluation
// depth — and registers on the pending value it waits on. A completion
// resolves that task's value and wakes only the suspensions waiting on it;
// a resumed suspension that produces its value in turn wakes the
// suspensions waiting on *that*. So data-dependent conditionals, unbounded
// loops, and recursion are supported at a cost proportional to what a
// completion unblocks, not to the size of the program.
//
// Discovery order: every suspension records its traversal position (let
// index, then argument, list-element, combination, and call-depth
// indices). Woken suspensions resume in lexicographic position order, so
// tasks are discovered — and numbered — in exactly the order a full
// from-root re-evaluation after every completion would find them. Task ids
// and output paths therefore match that model bit for bit; the test suite
// keeps such a from-root evaluator as an oracle
// (tests/cuneiform_oracle_test.cc) and checks the two agree after every
// step of random programs under random completion orders.

#ifndef HIWAY_LANG_CUNEIFORM_H_
#define HIWAY_LANG_CUNEIFORM_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/lang/cuneiform_ast.h"
#include "src/lang/workflow.h"

namespace hiway {

struct CuneiformOptions {
  /// DFS directory generated outputs are placed under.
  std::string output_dir = "/cuneiform";
  /// Guards against unbounded *static* recursion (a defun that recurses
  /// without consuming task results). Each level costs several native
  /// stack frames, so the bound is sized to trip well before the C++
  /// stack does (even under sanitizers). Suspensions keep the depth they
  /// stopped at, so data-driven iterations count against it too (~60+
  /// still fit comfortably).
  int max_eval_depth = 400;
  /// Workflow name used in provenance.
  std::string workflow_name = "cuneiform-workflow";
};

class CuneiformSource : public WorkflowSource {
 public:
  /// Parses `source_text`; fails on syntax errors.
  static Result<std::unique_ptr<CuneiformSource>> Parse(
      std::string_view source_text, CuneiformOptions options = {});
  ~CuneiformSource() override;

  std::string name() const override { return options_.workflow_name; }
  bool IsStatic() const override { return false; }
  Result<std::vector<TaskSpec>> Init() override;
  /// Evaluation errors are final: once a call fails, later calls return
  /// the same error. A repeated completion of a task is ignored.
  Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) override;
  bool IsDone() const override { return done_; }
  /// File paths of the targets, flattened in order (pending parts skipped).
  std::vector<std::string> Targets() const override;

  /// Number of distinct task applications discovered so far.
  size_t applications() const { return apps_.size(); }

 private:
  struct Val;
  struct Cell;
  struct Env;
  struct Suspension;
  /// Where evaluation stopped: the three places of the header comment,
  /// with an application whose map/cross shape is still pending (kApply)
  /// told apart from a single combination.
  enum class Stop { kIf, kConcat, kApply, kCombination };
  using ValPtr = std::shared_ptr<const Val>;
  using EnvPtr = std::shared_ptr<const Env>;
  /// Traversal position of an evaluation point (see the header comment).
  using Path = std::vector<uint32_t>;

  /// One concrete application, indexed by task id - 1.
  struct AppEntry {
    const cuneiform::TaskDef* def = nullptr;
    /// Output paths in `def->outputs` order (empty for value outputs).
    std::vector<std::string> output_paths;
    /// Resolved with the task's outputs on completion.
    Cell* cell = nullptr;
  };

  struct LaterPosition {
    bool operator()(const Suspension* a, const Suspension* b) const;
  };

  CuneiformSource(cuneiform::Program program, CuneiformOptions options);

  Result<ValPtr> Eval(const cuneiform::Expr& expr, const EnvPtr& env,
                      int depth, Path& path);
  Result<ValPtr> EvalApply(const cuneiform::Expr& expr, const EnvPtr& env,
                           int depth, Path& path);
  // The *From functions continue evaluation at a stop. With `s` null they
  // run on first evaluation and suspend anew if blocked; with `s` they
  // resume it, and if still blocked re-arm it and return its own pending
  // value. `path` is the stopped expression's position.

  /// Continues a concatenation at part `i`, whose value is `part`.
  Result<ValPtr> ConcatFrom(const cuneiform::Expr& expr, const EnvPtr& env,
                            int depth, Path& path, size_t i,
                            ValPtr part, std::string text, Suspension* s);
  Result<ValPtr> IfFrom(const cuneiform::Expr& expr, const EnvPtr& env,
                        int depth, Path& path, ValPtr cond,
                        Suspension* s);
  /// Map/cross-expands an application whose arguments are in
  /// `def.inputs` order; `first_combination` is the position index of
  /// its first combination under `path`.
  Result<ValPtr> ApplyFrom(const cuneiform::TaskDef& def,
                           std::vector<ValPtr> args, Path& path,
                           uint32_t first_combination, Suspension* s);
  /// One combination (after map/cross expansion); `path` is its own
  /// position.
  Result<ValPtr> CombinationFrom(const cuneiform::TaskDef& def,
                                 std::vector<ValPtr> bound, Path& path,
                                 Suspension* s);
  /// Invokes a combination whose arguments are all concrete: validates
  /// them, then returns the memoised application's value, discovering a
  /// new task on a memo miss.
  Result<ValPtr> InvokeConcrete(const cuneiform::TaskDef& def,
                                const std::vector<ValPtr>& bound);

  Cell* NewCell();
  Suspension* Suspend(Suspension* s, Stop kind, const Path& path, int depth);
  void Await(Suspension* s, Cell* cell);
  void Wake(Cell* cell);
  void Resolve(Cell* cell, ValPtr value);
  /// Resumes woken suspensions in position order until none is left.
  Status Drain(uint32_t* failed_at);
  Status Resume(Suspension* s);
  /// Records an evaluation error raised under top-level statement
  /// `failed_at` (a let index, or the number of lets plus a target index).
  Result<std::vector<TaskSpec>> Fail(Status status, uint32_t failed_at);
  void UpdateDone();

  /// The value `v` stands for, through resolved cells.
  static const Val& Follow(const ValPtr& v);
  static bool IsConcrete(const ValPtr& v, Cell** blocker);
  static bool Truthy(const Val& v);
  static void Serialize(const ValPtr& v, std::string* out);

  cuneiform::Program program_;
  CuneiformOptions options_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::unique_ptr<Suspension>> suspensions_;
  std::priority_queue<Suspension*, std::vector<Suspension*>, LaterPosition>
      woken_;
  std::vector<AppEntry> apps_;
  /// Serialised application key -> index into apps_.
  FlatHashMap<std::string, size_t> memo_;
  std::vector<ValPtr> targets_;
  std::vector<TaskSpec>* discovered_ = nullptr;
  Status failed_;
  /// Calls so far (Init and completions); cells record the one that
  /// resolved them.
  uint64_t calls_ = 0;
  /// Targets() shows cells resolved up to this call.
  uint64_t targets_view_ = UINT64_MAX;
  bool done_ = false;
};

}  // namespace hiway

#endif  // HIWAY_LANG_CUNEIFORM_H_
