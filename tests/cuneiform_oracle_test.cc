// Oracle property test for the incremental Cuneiform evaluator.
//
// SweepSource below is the reference evaluation model: after every task
// completion it re-evaluates the whole program from the root (memoised
// per concrete application). CuneiformSource must behave exactly like it —
// same TaskSpecs in the same order, same Status, same IsDone(), Targets()
// and applications() — after Init and after every completion. The two are
// driven side by side over seeded random programs (map, cross, aggregate
// parameters, data-dependent `if`, defun recursion, multi-output tasks),
// the programs of cuneiform_test.cc / cuneiform_edge_test.cc, the k-means
// and SNV workloads, and tests/fuzz/corpus/cuneiform/, each under several
// random completion orders with random task stdout values.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/lang/cuneiform.h"
#include "src/lang/cuneiform_parser.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

using cuneiform::Expr;
using cuneiform::ExprPtr;
using cuneiform::FunDef;
using cuneiform::OutDecl;
using cuneiform::ParamDecl;
using cuneiform::Program;
using cuneiform::TaskDef;

// ------------------------------------------------- from-root reference --
//
// The interpreter as it was before evaluation became incremental, kept
// unchanged apart from its class name: one Sweep() from the root per call.

/// Evaluation value: strings, files, lists, or a pending task output.
struct CuneiformValue {
  enum class Kind { kString, kFile, kList, kPending };
  Kind kind = Kind::kString;
  std::string str;                     // kString / kFile payload
  std::vector<CuneiformValue> items;   // kList payload

  static CuneiformValue String(std::string s) {
    CuneiformValue v;
    v.kind = Kind::kString;
    v.str = std::move(s);
    return v;
  }
  static CuneiformValue File(std::string path) {
    CuneiformValue v;
    v.kind = Kind::kFile;
    v.str = std::move(path);
    return v;
  }
  static CuneiformValue List(std::vector<CuneiformValue> items) {
    CuneiformValue v;
    v.kind = Kind::kList;
    v.items = std::move(items);
    return v;
  }
  static CuneiformValue Pending() {
    CuneiformValue v;
    v.kind = Kind::kPending;
    return v;
  }

  /// True if no pending value occurs anywhere inside.
  bool IsConcrete() const;
};

/// From-root reference evaluator (see above).
class SweepSource : public WorkflowSource {
 public:
  /// Parses `source_text`; fails on syntax errors.
  static Result<std::unique_ptr<SweepSource>> Parse(
      std::string_view source_text, CuneiformOptions options = {});

  std::string name() const override { return options_.workflow_name; }
  bool IsStatic() const override { return false; }
  Result<std::vector<TaskSpec>> Init() override;
  Result<std::vector<TaskSpec>> OnTaskCompleted(
      const TaskResult& result) override;
  bool IsDone() const override { return done_; }
  std::vector<std::string> Targets() const override;

  /// Resolved target values after completion (files flattened in order).
  const std::vector<CuneiformValue>& target_values() const {
    return target_values_;
  }

  /// Number of distinct task applications discovered so far.
  size_t applications() const { return memo_.size(); }

 private:
  SweepSource(cuneiform::Program program, CuneiformOptions options)
      : program_(std::move(program)), options_(std::move(options)) {}

  struct AppEntry {
    TaskId task_id = kInvalidTask;
    bool done = false;
    /// Output values by parameter name (filled on completion).
    std::map<std::string, CuneiformValue> outputs;
    TaskSpec spec;
  };

  using Env = std::map<std::string, CuneiformValue>;

  /// One full reduction sweep; fills `discovered` with new tasks and sets
  /// done_ when all targets are concrete.
  Status Sweep(std::vector<TaskSpec>* discovered);

  Result<CuneiformValue> Eval(const cuneiform::ExprPtr& expr, const Env& env,
                              int depth, std::vector<TaskSpec>* discovered);
  Result<CuneiformValue> EvalApply(const cuneiform::Expr& expr, const Env& env,
                                   int depth,
                                   std::vector<TaskSpec>* discovered);
  Result<CuneiformValue> ApplyTask(const cuneiform::TaskDef& def,
                                   const std::map<std::string, CuneiformValue>&
                                       args,
                                   std::vector<TaskSpec>* discovered);
  /// Invokes one concrete combination (after map/cross expansion).
  /// A parameter's value is `overrides[name]` if present, else
  /// `args[name]` — the override indirection avoids copying the (possibly
  /// huge) argument lists once per combination.
  Result<CuneiformValue> InvokeCombination(
      const cuneiform::TaskDef& def,
      const std::map<std::string, CuneiformValue>& args,
      const std::map<std::string, const CuneiformValue*>& overrides,
      std::vector<TaskSpec>* discovered);

  static bool Truthy(const CuneiformValue& v);
  static std::string Serialize(const CuneiformValue& v);

  cuneiform::Program program_;
  CuneiformOptions options_;
  std::map<std::string, AppEntry> memo_;      // app key -> entry
  std::map<TaskId, std::string> key_by_task_;
  TaskId next_task_id_ = 1;
  bool done_ = false;
  std::vector<CuneiformValue> target_values_;
};

bool CuneiformValue::IsConcrete() const {
  if (kind == Kind::kPending) return false;
  if (kind == Kind::kList) {
    for (const CuneiformValue& item : items) {
      if (!item.IsConcrete()) return false;
    }
  }
  return true;
}

Result<std::unique_ptr<SweepSource>> SweepSource::Parse(
    std::string_view source_text, CuneiformOptions options) {
  HIWAY_ASSIGN_OR_RETURN(Program program,
                         cuneiform::ParseCuneiform(source_text));
  return std::unique_ptr<SweepSource>(
      new SweepSource(std::move(program), std::move(options)));
}

bool SweepSource::Truthy(const CuneiformValue& v) {
  switch (v.kind) {
    case CuneiformValue::Kind::kString:
    case CuneiformValue::Kind::kFile:
      return !v.str.empty() && v.str != "false" && v.str != "0";
    case CuneiformValue::Kind::kList:
      return !v.items.empty();
    case CuneiformValue::Kind::kPending:
      return false;  // callers must check IsConcrete first
  }
  return false;
}

std::string SweepSource::Serialize(const CuneiformValue& v) {
  switch (v.kind) {
    case CuneiformValue::Kind::kString:
      return "s'" + v.str + "'";
    case CuneiformValue::Kind::kFile:
      return "f'" + v.str + "'";
    case CuneiformValue::Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ",";
        out += Serialize(v.items[i]);
      }
      return out + "]";
    }
    case CuneiformValue::Kind::kPending:
      return "<pending>";
  }
  return "?";
}

Result<std::vector<TaskSpec>> SweepSource::Init() {
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

Result<std::vector<TaskSpec>> SweepSource::OnTaskCompleted(
    const TaskResult& result) {
  auto key_it = key_by_task_.find(result.id);
  if (key_it == key_by_task_.end()) {
    return Status::InvalidArgument(
        StrFormat("completion for unknown task %lld",
                  static_cast<long long>(result.id)));
  }
  AppEntry& entry = memo_[key_it->second];
  entry.done = true;
  // Bind declared outputs to produced files / the stdout value.
  const TaskDef& def = program_.tasks.at(entry.spec.signature);
  std::map<std::string, std::string> produced;
  for (const OutputSpec& out : entry.spec.outputs) {
    produced[out.param] = out.path;
  }
  for (const OutDecl& out : def.outputs) {
    if (out.is_value) {
      entry.outputs[out.name] =
          CuneiformValue::String(result.stdout_value);
    } else {
      entry.outputs[out.name] = CuneiformValue::File(produced[out.name]);
    }
  }
  std::vector<TaskSpec> discovered;
  HIWAY_RETURN_IF_ERROR(Sweep(&discovered));
  return discovered;
}

std::vector<std::string> SweepSource::Targets() const {
  std::vector<std::string> out;
  // Flatten file paths of resolved targets.
  std::function<void(const CuneiformValue&)> visit =
      [&](const CuneiformValue& v) {
        if (v.kind == CuneiformValue::Kind::kFile) out.push_back(v.str);
        if (v.kind == CuneiformValue::Kind::kList) {
          for (const CuneiformValue& item : v.items) visit(item);
        }
      };
  for (const CuneiformValue& v : target_values_) visit(v);
  return out;
}

Status SweepSource::Sweep(std::vector<TaskSpec>* discovered) {
  Env env;
  // Top-level lets evaluate in order; later bindings may shadow earlier.
  for (const auto& [name, expr] : program_.lets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformValue v, Eval(expr, env, 0, discovered));
    env[name] = std::move(v);
  }
  target_values_.clear();
  bool all_concrete = true;
  for (const ExprPtr& target : program_.targets) {
    HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                           Eval(target, env, 0, discovered));
    all_concrete = all_concrete && v.IsConcrete();
    target_values_.push_back(std::move(v));
  }
  done_ = all_concrete;
  return Status::OK();
}

Result<CuneiformValue> SweepSource::Eval(
    const ExprPtr& expr, const Env& env, int depth,
    std::vector<TaskSpec>* discovered) {
  if (depth > options_.max_eval_depth) {
    return Status::RuntimeError(StrFormat(
        "evaluation depth limit (%d) exceeded at line %d — unbounded "
        "static recursion?",
        options_.max_eval_depth, expr->line));
  }
  switch (expr->kind) {
    case Expr::Kind::kString:
      return CuneiformValue::String(expr->str);
    case Expr::Kind::kVar: {
      auto it = env.find(expr->str);
      if (it == env.end()) {
        return Status::InvalidArgument(StrFormat(
            "undefined variable '%s' at line %d", expr->str.c_str(),
            expr->line));
      }
      return it->second;
    }
    case Expr::Kind::kList: {
      std::vector<CuneiformValue> items;
      items.reserve(expr->items.size());
      for (const ExprPtr& item : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                               Eval(item, env, depth + 1, discovered));
        items.push_back(std::move(v));
      }
      return CuneiformValue::List(std::move(items));
    }
    case Expr::Kind::kConcat: {
      std::string out;
      for (const ExprPtr& part : expr->items) {
        HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                               Eval(part, env, depth + 1, discovered));
        if (v.kind == CuneiformValue::Kind::kPending) {
          return CuneiformValue::Pending();
        }
        if (v.kind == CuneiformValue::Kind::kList) {
          return Status::InvalidArgument(StrFormat(
              "cannot concatenate a list at line %d", expr->line));
        }
        out += v.str;
      }
      return CuneiformValue::String(std::move(out));
    }
    case Expr::Kind::kIf: {
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue cond,
                             Eval(expr->cond, env, depth + 1, discovered));
      if (!cond.IsConcrete()) {
        // Data-dependent control flow: suspend both branches until the
        // condition's task(s) finish. This is what makes the language
        // iterative without unbounded task graphs.
        return CuneiformValue::Pending();
      }
      return Eval(Truthy(cond) ? expr->then_branch : expr->else_branch, env,
                  depth + 1, discovered);
    }
    case Expr::Kind::kApply:
      return EvalApply(*expr, env, depth, discovered);
  }
  return Status::RuntimeError("unreachable expression kind");
}

Result<CuneiformValue> SweepSource::EvalApply(
    const Expr& expr, const Env& env, int depth,
    std::vector<TaskSpec>* discovered) {
  auto task_it = program_.tasks.find(expr.str);
  if (task_it != program_.tasks.end()) {
    // Task application: named arguments only.
    std::map<std::string, CuneiformValue> args;
    for (const auto& [name, value_expr] : expr.args) {
      if (name.empty()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' requires named arguments (line %d)",
            expr.str.c_str(), expr.line));
      }
      HIWAY_ASSIGN_OR_RETURN(CuneiformValue v,
                             Eval(value_expr, env, depth + 1, discovered));
      args[name] = std::move(v);
    }
    return ApplyTask(task_it->second, args, discovered);
  }
  auto fun_it = program_.funs.find(expr.str);
  if (fun_it != program_.funs.end()) {
    const FunDef& def = fun_it->second;
    if (expr.args.size() != def.params.size()) {
      return Status::InvalidArgument(StrFormat(
          "function '%s' expects %zu arguments, got %zu (line %d)",
          def.name.c_str(), def.params.size(), expr.args.size(), expr.line));
    }
    Env local;  // defuns close over nothing but their parameters
    for (size_t i = 0; i < def.params.size(); ++i) {
      if (!expr.args[i].first.empty() &&
          expr.args[i].first != def.params[i]) {
        return Status::InvalidArgument(StrFormat(
            "function '%s' argument %zu is named '%s', expected '%s'",
            def.name.c_str(), i, expr.args[i].first.c_str(),
            def.params[i].c_str()));
      }
      HIWAY_ASSIGN_OR_RETURN(
          CuneiformValue v,
          Eval(expr.args[i].second, env, depth + 1, discovered));
      local[def.params[i]] = std::move(v);
    }
    return Eval(def.body, local, depth + 1, discovered);
  }
  return Status::InvalidArgument(StrFormat(
      "'%s' is neither a task nor a function (line %d)", expr.str.c_str(),
      expr.line));
}

Result<CuneiformValue> SweepSource::ApplyTask(
    const TaskDef& def, const std::map<std::string, CuneiformValue>& args,
    std::vector<TaskSpec>* discovered) {
  // Check arity.
  for (const ParamDecl& param : def.inputs) {
    if (args.find(param.name) == args.end()) {
      return Status::InvalidArgument(StrFormat(
          "task '%s' missing argument '%s'", def.name.c_str(),
          param.name.c_str()));
    }
  }
  if (args.size() != def.inputs.size()) {
    return Status::InvalidArgument(StrFormat(
        "task '%s' called with %zu arguments, expects %zu",
        def.name.c_str(), args.size(), def.inputs.size()));
  }

  // Implicit map/cross: each *single* parameter bound to a list expands
  // the application over the cross product of such lists (Cuneiform's
  // second-order behaviour). Aggregating ([x]) parameters consume their
  // whole list in one invocation.
  std::vector<const ParamDecl*> mapped;
  for (const ParamDecl& param : def.inputs) {
    const CuneiformValue& v = args.at(param.name);
    if (!param.is_list && v.kind == CuneiformValue::Kind::kList) {
      mapped.push_back(&param);
    }
  }

  if (mapped.empty()) {
    return InvokeCombination(def, args, {}, discovered);
  }

  // Mapping over an empty list yields an empty list (no invocations).
  for (const ParamDecl* param : mapped) {
    if (args.at(param->name).items.empty()) {
      return CuneiformValue::List({});
    }
  }

  // Enumerate the cross product (deterministic order). Per-combination
  // bindings are pointer overrides into the argument lists — copying the
  // lists here would make large fan-outs quadratic.
  std::vector<CuneiformValue> results;
  std::vector<size_t> index(mapped.size(), 0);
  std::map<std::string, const CuneiformValue*> overrides;
  while (true) {
    bool element_pending = false;
    for (size_t i = 0; i < mapped.size(); ++i) {
      const CuneiformValue& list = args.at(mapped[i]->name);
      const CuneiformValue& element = list.items[index[i]];
      if (!element.IsConcrete()) element_pending = true;
      overrides[mapped[i]->name] = &element;
    }
    if (element_pending) {
      // This combination's inputs are not known yet; it stays pending but
      // sibling combinations still proceed (eager per-element evaluation).
      results.push_back(CuneiformValue::Pending());
    } else {
      HIWAY_ASSIGN_OR_RETURN(
          CuneiformValue v,
          InvokeCombination(def, args, overrides, discovered));
      results.push_back(std::move(v));
    }
    // Advance the odometer.
    size_t pos = mapped.size();
    while (pos > 0) {
      --pos;
      if (++index[pos] < args.at(mapped[pos]->name).items.size()) break;
      index[pos] = 0;
      if (pos == 0) return CuneiformValue::List(std::move(results));
    }
  }
}

Result<CuneiformValue> SweepSource::InvokeCombination(
    const TaskDef& def, const std::map<std::string, CuneiformValue>& args,
    const std::map<std::string, const CuneiformValue*>& overrides,
    std::vector<TaskSpec>* discovered) {
  auto arg = [&](const std::string& name) -> const CuneiformValue& {
    auto it = overrides.find(name);
    return it != overrides.end() ? *it->second : args.at(name);
  };
  // Pending arguments suspend this combination entirely.
  for (const ParamDecl& param : def.inputs) {
    if (!arg(param.name).IsConcrete()) {
      return CuneiformValue::Pending();
    }
  }
  // Validate argument shapes.
  for (const ParamDecl& param : def.inputs) {
    const CuneiformValue& v = arg(param.name);
    if (param.is_list) {
      if (v.kind != CuneiformValue::Kind::kList) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' parameter [%s] requires a list", def.name.c_str(),
            param.name.c_str()));
      }
    } else if (v.kind == CuneiformValue::Kind::kList) {
      return Status::RuntimeError("unexpanded list argument");
    }
  }

  // Memo key: the concrete application.
  std::string key = def.name + "(";
  for (const ParamDecl& param : def.inputs) {
    key += param.name + "=" + Serialize(arg(param.name)) + ";";
  }
  key += ")";

  auto result_value = [&](AppEntry& entry) -> CuneiformValue {
    if (!entry.done) return CuneiformValue::Pending();
    if (def.outputs.size() == 1) {
      return entry.outputs.at(def.outputs[0].name);
    }
    std::vector<CuneiformValue> tuple;
    for (const OutDecl& out : def.outputs) {
      tuple.push_back(entry.outputs.at(out.name));
    }
    return CuneiformValue::List(std::move(tuple));
  };

  auto it = memo_.find(key);
  if (it != memo_.end()) {
    return result_value(it->second);
  }

  // New concrete application: synthesise a TaskSpec.
  AppEntry entry;
  entry.task_id = next_task_id_++;
  TaskSpec spec;
  spec.id = entry.task_id;
  spec.signature = def.name;
  spec.tool = def.tool;
  for (const ParamDecl& param : def.inputs) {
    const CuneiformValue& v = arg(param.name);
    if (param.is_list) {
      int files = 0;
      for (const CuneiformValue& item : v.items) {
        if (item.kind == CuneiformValue::Kind::kFile) {
          spec.input_files.push_back(item.str);
          ++files;
        } else {
          spec.params[param.name + "." +
                      StrFormat("%d", files)] = item.str;
        }
      }
      spec.params[param.name + ".count"] =
          StrFormat("%zu", v.items.size());
    } else if (param.is_string) {
      spec.params[param.name] = v.str;
    } else {
      // File parameter: string literals are path literals.
      spec.input_files.push_back(v.str);
    }
  }
  for (const auto& [prop, value] : def.props) {
    if (prop == "cpu") {
      auto parsed = ParseInt64(value);
      if (parsed.ok()) spec.vcores = static_cast<int>(*parsed);
    } else if (prop == "mem") {
      auto parsed = ParseDouble(value);
      if (parsed.ok()) spec.memory_mb = *parsed;
    } else {
      spec.params[prop] = value;
    }
  }
  for (const OutDecl& out : def.outputs) {
    OutputSpec o;
    o.param = out.name;
    o.is_value = out.is_value;
    if (!out.is_value) {
      // Content-addressed scratch path: the memo key canonically encodes
      // the definition and its concrete arguments, so the same
      // application writes to the same place in every run, regardless of
      // completion order. Cross-run result-cache keys depend on this
      // (an order-dependent invocation counter would make every repeat
      // submission a miss); re-executions after an input change land in
      // a fresh directory instead of clobbering the previous cone.
      o.path = StrFormat("%s/%s-%016llx/%s.dat", options_.output_dir.c_str(),
                         def.name.c_str(),
                         static_cast<unsigned long long>(Fnv1a64(key)),
                         out.name.c_str());
    }
    spec.outputs.push_back(std::move(o));
  }
  spec.command = key;
  entry.spec = spec;
  memo_.emplace(key, std::move(entry));
  key_by_task_.emplace(spec.id, key);
  discovered->push_back(std::move(spec));
  return CuneiformValue::Pending();
}


// ------------------------------------------------- side-by-side runner --

std::string Describe(const TaskSpec& t) {
  std::ostringstream os;
  os << "id=" << t.id << " sig=" << t.signature << " tool=" << t.tool
     << " cmd=" << t.command << " vcores=" << t.vcores
     << " mem=" << t.memory_mb;
  for (const auto& [k, v] : t.params) os << " param:" << k << "=" << v;
  for (const std::string& f : t.input_files) os << " in:" << f;
  for (const OutputSpec& o : t.outputs) {
    os << " out:" << o.param << (o.is_value ? "<value>" : "") << "="
       << o.path;
    if (o.size_bytes) os << "@" << *o.size_bytes;
  }
  return os.str();
}

std::vector<std::string> Describe(const Result<std::vector<TaskSpec>>& r) {
  std::vector<std::string> out;
  if (r.ok()) {
    for (const TaskSpec& t : *r) out.push_back(Describe(t));
  }
  out.push_back("status: " + r.status().ToString());
  return out;
}

/// Checks that both evaluators returned the same thing from the same call
/// and are in the same observable state afterwards.
::testing::AssertionResult Agree(const Result<std::vector<TaskSpec>>& want,
                                 const Result<std::vector<TaskSpec>>& got,
                                 const SweepSource& oracle,
                                 const CuneiformSource& source) {
  std::vector<std::string> a = Describe(want);
  std::vector<std::string> b = Describe(got);
  if (a != b) {
    auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return ::testing::AssertionFailure()
           << "discovered tasks differ at index " << (diff.first - a.begin())
           << "\n  oracle:      "
           << (diff.first == a.end() ? "<end>" : *diff.first)
           << "\n  incremental: "
           << (diff.second == b.end() ? "<end>" : *diff.second);
  }
  if (oracle.IsDone() != source.IsDone()) {
    return ::testing::AssertionFailure()
           << "IsDone: oracle " << oracle.IsDone() << ", incremental "
           << source.IsDone();
  }
  if (oracle.Targets() != source.Targets()) {
    return ::testing::AssertionFailure()
           << "Targets differ: oracle [" << StrJoin(oracle.Targets(), ", ")
           << "], incremental [" << StrJoin(source.Targets(), ", ") << "]";
  }
  if (oracle.applications() != source.applications()) {
    return ::testing::AssertionFailure()
           << "applications: oracle " << oracle.applications()
           << ", incremental " << source.applications();
  }
  return ::testing::AssertionSuccess();
}

/// Completion order of the pending tasks.
enum class Order { kFifo, kLifo, kRandom };

struct RunStats {
  bool parsed = false;
  bool failed = false;  // the program ended in an evaluation error
  bool done = false;
  int completions = 0;
};

constexpr int kMaxCompletions = 300;

/// Drives both evaluators over `text` with the same completions and
/// compares them after Init and after every completion.
::testing::AssertionResult RunSideBySide(const std::string& text,
                                         const CuneiformOptions& options,
                                         Order order, uint64_t seed,
                                         RunStats* stats) {
  auto oracle = SweepSource::Parse(text, options);
  auto source = CuneiformSource::Parse(text, options);
  if (oracle.ok() != source.ok()) {
    return ::testing::AssertionFailure() << "Parse disagrees";
  }
  stats->parsed = oracle.ok();
  if (!oracle.ok()) {
    stats->failed = true;
    return oracle.status() == source.status()
               ? ::testing::AssertionSuccess()
               : ::testing::AssertionFailure() << "Parse errors differ";
  }
  std::mt19937_64 rng(seed);
  static const char* const kStdout[] = {"", "0", "false", "true", "x", "1"};

  auto want = (*oracle)->Init();
  auto got = (*source)->Init();
  ::testing::AssertionResult same = Agree(want, got, **oracle, **source);
  if (!same) return same << " (after Init)";
  if (!want.ok()) {
    stats->failed = true;
    return same;
  }
  std::vector<TaskSpec> pending = std::move(want).value();
  while (!pending.empty() && stats->completions < kMaxCompletions) {
    size_t pick = 0;
    switch (order) {
      case Order::kFifo: pick = 0; break;
      case Order::kLifo: pick = pending.size() - 1; break;
      case Order::kRandom: pick = rng() % pending.size(); break;
    }
    TaskSpec spec = std::move(pending[pick]);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    TaskResult result;
    result.id = spec.id;
    result.signature = spec.signature;
    result.status = Status::OK();
    result.stdout_value = kStdout[rng() % std::size(kStdout)];
    for (const OutputSpec& out : spec.outputs) {
      if (!out.is_value) result.produced_files.emplace_back(out.path, 1024);
    }
    ++stats->completions;
    want = (*oracle)->OnTaskCompleted(result);
    got = (*source)->OnTaskCompleted(result);
    same = Agree(want, got, **oracle, **source);
    if (!same) {
      return same << " (after completing task " << spec.id << " ["
                  << spec.signature << "], completion "
                  << stats->completions << ")";
    }
    if (!want.ok()) {
      stats->failed = true;
      return same;
    }
    pending.insert(pending.end(), want->begin(), want->end());
  }
  stats->done = (*source)->IsDone();
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------ random programs --

/// Seeded generator of small Cuneiform programs that exercise every
/// evaluation feature. Arguments are drawn from a few shared literals so
/// memoisation hits are common; a share of programs hits an evaluation
/// error (shape errors, static recursion, the depth limit).
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string text =
        "deftask a( o : i ) in 'ta';\n"
        "deftask b( o : i ) in 'tb' { cpu: 2 };\n"
        "deftask two( l r : i ) in 'two';\n"
        "deftask mix( o : x y ) in 'mix';\n"
        "deftask agg( o : [xs] ) in 'agg';\n"
        "deftask probe( <v> : i ) in 'probe';\n"
        "deftask say( <v> : ~s ) in 'say';\n"
        "deftask tag( o : ~s i ) in 'tag' { mem: 512, mode: 'fast' };\n"
        "deftask vagg( <v> : [xs] ) in 'vagg';\n"
        "defun loop(x) { if probe( i: x ) then x else loop( a( i: x ) ) end }\n"
        "defun pick(c, x, y) { if c then x else y end }\n"
        "defun twice(x) { b( i: a( i: x ) ) }\n"
        "defun fan(x) { mix( x: two( i: x ), y: [x, a( i: x )] ) }\n"
        "defun spin(x) { spin(x) }\n";
    scope_.clear();
    int lets = 1 + static_cast<int>(Pick(5));
    for (int i = 0; i < lets; ++i) {
      // Rebinding an existing name exercises shadowing.
      std::string name = !scope_.empty() && Chance(10)
                             ? scope_[Pick(scope_.size())].first
                             : "v" + std::to_string(i);
      Gen e = Expr(3);
      text += "let " + name + " = " + e.text + ";\n";
      scope_.emplace_back(name, e.size);
    }
    text += "target " + Expr(2).text;
    if (Chance(40)) text += ", " + Expr(2).text;
    text += ";\n";
    return text;
  }

 private:
  /// An expression and an upper bound on the leaves of its value, which
  /// bounds every map/cross product it can feed.
  struct Gen {
    std::string text;
    size_t size;
  };
  static constexpr size_t kMaxSize = 24;

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(size_t percent) { return Pick(100) < percent; }

  Gen Leaf() {
    if (!scope_.empty() && Chance(50)) {
      const auto& [name, size] = scope_[Pick(scope_.size())];
      return {name, size};
    }
    return {"'/in/f" + std::to_string(Pick(4)) + "'", 1};
  }

  Gen List(int depth) {
    Gen out{"[", 0};
    size_t n = Pick(4);
    for (size_t i = 0; i < n; ++i) {
      Gen item = Expr(depth - 1);
      if (i > 0) out.text += ", ";
      out.text += item.text;
      out.size += item.size;
    }
    out.text += "]";
    out.size = std::max<size_t>(out.size, 1);
    return out;
  }

  Gen Expr(int depth) {
    Gen e = Build(depth);
    // Keep cross products small: both evaluators hold every combination.
    return e.size <= kMaxSize ? e : Gen{"'/in/f0'", 1};
  }

  Gen Build(int depth) {
    if (depth <= 0 || Chance(20)) return Leaf();
    auto sub = [&] { return Expr(depth - 1); };
    auto call = [](const std::string& head, std::initializer_list<Gen> args,
                   size_t size) {
      std::string text = head + "( ";
      size_t i = 0;
      for (const Gen& arg : args) text += (i++ > 0 ? ", " : "") + arg.text;
      return Gen{text + " )", size};
    };
    switch (Pick(19)) {
      case 0: return List(depth);
      case 1: { Gen x = sub(); return call("a", {{"i: " + x.text, 0}}, x.size); }
      case 2: { Gen x = sub(); return call("b", {{"i: " + x.text, 0}}, x.size); }
      case 3: {
        Gen x = sub();
        return call("two", {{"i: " + x.text, 0}}, 2 * x.size);
      }
      case 4: {
        Gen x = sub(), y = sub();
        return call("mix", {{"x: " + x.text, 0}, {"y: " + y.text, 0}},
                    x.size * y.size);
      }
      case 5: {
        Gen x = Chance(70) ? List(depth) : sub();
        return call("agg", {{"xs: " + x.text, 0}}, 1);
      }
      case 6: {
        Gen x = sub();
        return call("probe", {{"i: " + x.text, 0}}, x.size);
      }
      case 7: { Gen x = sub(); return call("say", {{"s: " + x.text, 0}}, x.size); }
      case 8: {
        Gen x = sub(), y = sub();
        return call("tag", {{"s: " + x.text, 0}, {"i: " + y.text, 0}},
                    x.size * y.size);
      }
      case 9: {
        Gen x = Chance(70) ? List(depth) : sub();
        return call("vagg", {{"xs: " + x.text, 0}}, 1);
      }
      case 10: {
        Gen c = Chance(60) ? call("probe", {{"i: " + sub().text, 0}}, 1)
                           : sub();
        Gen t = sub(), f = sub();
        return {"if " + c.text + " then " + t.text + " else " + f.text +
                    " end",
                std::max(t.size, f.size)};
      }
      case 11: {
        Gen l = Chance(50) ? Gen{"'p' + say( s: " + sub().text + " )", 1}
                           : sub();
        Gen r = Chance(50) ? Gen{"'q'", 1} : sub();
        return {l.text + " + " + r.text, 1};
      }
      case 12: { Gen x = sub(); return call("loop", {x}, x.size); }
      case 13: {
        Gen c = sub(), x = sub(), y = sub();
        return call("pick", {c, x, y}, std::max(x.size, y.size));
      }
      case 14: { Gen x = sub(); return call("twice", {x}, x.size); }
      case 15: { Gen x = sub(); return call("fan", {x}, 4 * x.size * x.size); }
      case 16:
        // Rare error surfaces: static recursion, unbound names.
        if (Chance(5)) return call("spin", {sub()}, 1);
        if (Chance(3)) return {"nope", 1};
        return Leaf();
      default: return Leaf();
    }
  }

  std::mt19937_64 rng_;
  /// Let-bound names visible so far, with their value-size bounds.
  std::vector<std::pair<std::string, size_t>> scope_;
};

constexpr Order kOrders[] = {Order::kFifo, Order::kLifo, Order::kRandom,
                             Order::kRandom};

TEST(CuneiformOracleTest, RandomProgramsMatchFromRootEvaluation) {
  constexpr int kPrograms = 500;
  int finished = 0, failed = 0, completions = 0;
  for (int p = 0; p < kPrograms; ++p) {
    ProgramGenerator gen(0x5eed0000u + static_cast<uint64_t>(p));
    std::string text = gen.Generate();
    CuneiformOptions options;
    // A quarter of the programs run under a tight depth limit so that
    // data-driven recursion trips it part-way through.
    if (p % 4 == 3) options.max_eval_depth = 6 + p % 12;
    for (size_t o = 0; o < std::size(kOrders); ++o) {
      RunStats stats;
      ASSERT_TRUE(RunSideBySide(text, options, kOrders[o],
                                static_cast<uint64_t>(p) * 31 + o, &stats))
          << "program " << p << ", order " << o << ":\n" << text;
      finished += stats.done ? 1 : 0;
      failed += stats.failed ? 1 : 0;
      completions += stats.completions;
    }
  }
  // The generator must keep producing programs that run to completion,
  // or the comparison above proves little.
  const int runs = kPrograms * static_cast<int>(std::size(kOrders));
  EXPECT_GT(finished, runs / 3) << failed << " runs failed";
  EXPECT_GT(completions, runs * 3);
}

// ------------------------------------------------------ fixed programs --

std::vector<std::string> FixedPrograms() {
  std::vector<std::string> programs = {
      // cuneiform_test.cc
      "deftask align( sam : reads ) in 'bowtie2';\n"
      "let sams = align( reads: ['/a', '/b', '/c'] );\n"
      "target sams;",
      "deftask merge( table : [parts] ) in 'merger';\n"
      "deftask split( part : whole ) in 'splitter';\n"
      "let parts = split( whole: ['/x', '/y'] );\n"
      "target merge( parts: parts );",
      "deftask t( o : i ) in 'tool';\n"
      "let a = t( i: '/same' );\n"
      "let b = t( i: '/same' );\n"
      "target a, b;",
      "deftask decide( <v> : i ) in 'decider';\n"
      "deftask yes( o : i ) in 'yes-tool';\n"
      "deftask no( o : i ) in 'no-tool';\n"
      "let v = decide( i: '/in' );\n"
      "target if v then yes( i: '/in' ) else no( i: '/in' ) end;",
      "deftask step( next : points centroids ) in 'kmeans-step';\n"
      "deftask check( <ok> : old new ) in 'kmeans-check';\n"
      "defun iterate(points, centroids) {\n"
      "  if check( old: centroids, new: step( points: points,\n"
      "                                       centroids: centroids ) )\n"
      "  then step( points: points, centroids: centroids )\n"
      "  else iterate( points, step( points: points,\n"
      "                              centroids: centroids ) )\n"
      "  end\n"
      "}\n"
      "target iterate( '/in/points', '/in/c0' );",
      "target nope;",
      "defun loop(x) { loop(x) }\ntarget loop('a');",
      "deftask grep( hits : ~pattern corpus ) in 'grep';\n"
      "let p = 'AC' + 'GT';\n"
      "target grep( pattern: p, corpus: '/data/genome' );",
      // cuneiform_edge_test.cc
      "deftask probe( <v> : ~tag ) in 'probe';\n"
      "deftask act( o : ~which ) in 'act';\n"
      "target if probe( tag: 'outer' )\n"
      "       then if probe( tag: 'inner' )\n"
      "            then act( which: 'both' )\n"
      "            else act( which: 'outer-only' )\n"
      "            end\n"
      "       else act( which: 'neither' )\n"
      "       end;",
      "deftask split( part : whole ) in 'splitter';\n"
      "deftask merge( all : [parts] ) in 'merger';\n"
      "deftask polish( out : item ) in 'polisher';\n"
      "let parts = split( whole: ['/a', '/b', '/c'] );\n"
      "let merged = merge( parts: parts );\n"
      "target polish( item: merged );",
      "deftask both( left right : i ) in 'both';\n"
      "deftask useL( o : x ) in 'use-l';\n"
      "let pair = both( i: '/in' );\n"
      "target useL( x: pair ), pair;",
      "deftask vote( <v> : ~name ) in 'voter';\n"
      "deftask yes( o : ~t ) in 'yes';\n"
      "deftask no( o : ~t ) in 'no';\n"
      "let votes = [ vote( name: 'a' ), vote( name: 'b' ) ];\n"
      "target if votes then yes( t: 'quorum' ) else no( t: 'none' ) end;",
      "deftask t( o : ~s ) in 'tool';\n"
      "let x = 'first';\n"
      "let x = x + '-second';\n"
      "target t( s: x );",
      "deftask step( next : c ) in 'step';\n"
      "deftask check( <ok> : c ) in 'check';\n"
      "defun go(c) {\n"
      "  if check( c: c ) then c else go( step( c: c ) ) end\n"
      "}\n"
      "target go( '/seed' );",
      "deftask mix( o : a b ) in 'mixer';\n"
      "target mix( a: ['/a0', '/a1'], b: ['/b0', '/b1'] );",
      "deftask heavy( o : i ) in 'heavy' { cpu: 8, mem: 16384, mode: 'fast' };\n"
      "target heavy( i: '/in' );",
      "deftask t( o : i ) in 'x'; target t( '/a' );",
      "deftask t( o : i ) in 'x'; target t( i: '/a', j: '/b' );",
      "deftask t( o : i ) in 'x'; target t( j: '/a' );",
      "defun f(a) { a } target f('x', 'y');",
      "deftask t( o : [xs] ) in 'x'; target t( xs: 'single' );",
      "target 'a' + ['l'];",
      "deftask t( o : i ) in 'x';\n"
      "target 'just-a-string', t( i: '/in' );",
      // Shapes decided by pending values: a multi-output task feeding a
      // mapped parameter next to a mapped list, and a concatenation of
      // what turns out to be a list.
      "deftask two( l r : i ) in 'two';\n"
      "deftask mix( o : x y ) in 'mix';\n"
      "deftask say( <v> : ~s ) in 'say';\n"
      "let pair = two( i: '/in' );\n"
      "let crossed = mix( x: ['/a', '/b'], y: pair );\n"
      "target crossed, 'p' + say( s: mix( x: ['/c'], y: pair ) );",
  };
  programs.push_back(MakeKmeansWorkflow(KmeansWorkloadOptions{}).document);
  SnvWorkloadOptions snv;
  snv.num_chunks = 8;
  programs.push_back(MakeSnvCallingWorkflow(snv).document);
  for (const auto& entry :
       std::filesystem::directory_iterator(HIWAY_CUNEIFORM_CORPUS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    programs.push_back(text.str());
  }
  return programs;
}

TEST(CuneiformOracleTest, FixedProgramsMatchFromRootEvaluation) {
  std::vector<std::string> programs = FixedPrograms();
  for (size_t p = 0; p < programs.size(); ++p) {
    for (size_t o = 0; o < std::size(kOrders); ++o) {
      for (uint64_t seed = 0; seed < 8; ++seed) {
        RunStats stats;
        ASSERT_TRUE(RunSideBySide(programs[p], CuneiformOptions{},
                                  kOrders[o], seed * 7 + o, &stats))
            << "fixed program " << p << ", order " << o << ", seed " << seed
            << ":\n"
            << programs[p].substr(0, 2000);
        if (!stats.parsed) break;
      }
    }
  }
}

}  // namespace
}  // namespace hiway
