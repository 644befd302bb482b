#include "src/lang/cuneiform.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/common/strings.h"
#include "src/lang/cuneiform_parser.h"

namespace hiway {

using cuneiform::Expr;
using cuneiform::FunDef;
using cuneiform::OutDecl;
using cuneiform::ParamDecl;
using cuneiform::Program;
using cuneiform::TaskDef;

/// Evaluation value: a string, a file, a list, or a pending value standing
/// for a cell. Immutable once built and shared by pointer, so lists,
/// environments and argument vectors are never copied.
struct CuneiformSource::Val {
  enum class Kind { kString, kFile, kList, kPending };
  Kind kind = Kind::kString;
  std::string str;            // kString / kFile payload
  std::vector<ValPtr> items;  // kList payload
  Cell* cell = nullptr;       // kPending: the value this stands for
  /// kList: items [0, concrete_prefix) are known to be concrete. Values
  /// only ever become more concrete, so repeated checks of one list cost
  /// amortised O(1) per element.
  mutable size_t concrete_prefix = 0;

  static ValPtr String(std::string s) {
    auto v = std::make_shared<Val>();
    v->str = std::move(s);
    return v;
  }
  static ValPtr File(std::string path) {
    auto v = std::make_shared<Val>();
    v->kind = Kind::kFile;
    v->str = std::move(path);
    return v;
  }
  static ValPtr List(std::vector<ValPtr> items) {
    auto v = std::make_shared<Val>();
    v->kind = Kind::kList;
    v->items = std::move(items);
    return v;
  }
};

/// A value not known yet — a task's outputs, or what a suspension will
/// produce. Resolved exactly once; the value may itself be pending on
/// another cell.
struct CuneiformSource::Cell {
  ValPtr ref;  // the kPending value standing for this cell
  ValPtr value;
  bool resolved = false;
  /// The call (Init = 1, then one per completion) that resolved it.
  uint64_t resolved_at = 0;
  /// Unresolved, but already a list of pending elements: an application
  /// mapped over a list while another argument, still pending, decides
  /// its final shape. Concatenation rejects it and map/cross expands over
  /// it, as for the list of pending combinations a from-root evaluation
  /// builds there.
  bool list_shaped = false;
  /// Suspensions to wake, with the epoch they registered in.
  std::vector<std::pair<Suspension*, uint64_t>> waiters;
};

/// Persistent environment: one binding plus the environment it extends.
struct CuneiformSource::Env {
  const std::string* name = nullptr;
  ValPtr value;
  EnvPtr parent;
};

/// A point where evaluation stopped on a pending value, with what it needs
/// to continue. Re-armed in place while it stays blocked.
struct CuneiformSource::Suspension {
  Stop kind = Stop::kIf;
  /// Traversal position; resumption order. No two suspensions waiting
  /// at once share one.
  Path path;
  /// Bumped on every resumption; older registrations are stale.
  uint64_t epoch = 0;
  bool queued = false;
  /// Receives the value this suspension produces.
  Cell* cell = nullptr;
  int depth = 0;
  const Expr* expr = nullptr;  // kIf, kConcat
  EnvPtr env;                  // kIf, kConcat
  ValPtr blocker;              // kIf: the condition; kConcat: the part
  size_t part = 0;             // kConcat: index of the pending part
  std::string text;            // kConcat: the parts joined so far
  const TaskDef* def = nullptr;  // kApply, kCombination
  /// kApply: the arguments; kCombination: the bound values. Both in
  /// `def->inputs` order.
  std::vector<ValPtr> args;
};

bool CuneiformSource::LaterPosition::operator()(const Suspension* a,
                                                const Suspension* b) const {
  return b->path < a->path;
}

CuneiformSource::CuneiformSource(Program program, CuneiformOptions options)
    : program_(std::move(program)), options_(std::move(options)) {}

CuneiformSource::~CuneiformSource() = default;

Result<std::unique_ptr<CuneiformSource>> CuneiformSource::Parse(
    std::string_view source_text, CuneiformOptions options) {
  HIWAY_ASSIGN_OR_RETURN(Program program,
                         cuneiform::ParseCuneiform(source_text));
  return std::unique_ptr<CuneiformSource>(
      new CuneiformSource(std::move(program), std::move(options)));
}

// ------------------------------------------------------------- values ----

const CuneiformSource::Val& CuneiformSource::Follow(const ValPtr& v) {
  if (v->kind != Val::Kind::kPending || !v->cell->resolved) return *v;
  Cell* cell = v->cell;
  std::vector<Cell*> chain;
  while (cell->value->kind == Val::Kind::kPending &&
         cell->value->cell->resolved) {
    chain.push_back(cell);
    cell = cell->value->cell;
  }
  if (chain.empty()) return *cell->value;
  // Shorten the chain so later lookups take one hop. A shortened link
  // counts as resolved when its whole rest of the chain was, which keeps
  // the view of earlier calls (see Targets()) intact.
  const ValPtr& end = cell->value;
  uint64_t resolved_at = cell->resolved_at;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    resolved_at = std::max(resolved_at, (*it)->resolved_at);
    (*it)->resolved_at = resolved_at;
    (*it)->value = end;
  }
  return *end;
}

bool CuneiformSource::IsConcrete(const ValPtr& v, Cell** blocker) {
  const Val& d = Follow(v);
  if (d.kind == Val::Kind::kPending) {
    *blocker = d.cell;
    return false;
  }
  if (d.kind == Val::Kind::kList) {
    for (; d.concrete_prefix < d.items.size(); ++d.concrete_prefix) {
      if (!IsConcrete(d.items[d.concrete_prefix], blocker)) return false;
    }
  }
  return true;
}

bool CuneiformSource::Truthy(const Val& v) {
  switch (v.kind) {
    case Val::Kind::kString:
    case Val::Kind::kFile:
      return !v.str.empty() && v.str != "false" && v.str != "0";
    case Val::Kind::kList:
      return !v.items.empty();
    case Val::Kind::kPending:
      return false;  // callers must check IsConcrete first
  }
  return false;
}

void CuneiformSource::Serialize(const ValPtr& v, std::string* out) {
  const Val& d = Follow(v);
  switch (d.kind) {
    case Val::Kind::kString:
      *out += "s'" + d.str + "'";
      return;
    case Val::Kind::kFile:
      *out += "f'" + d.str + "'";
      return;
    case Val::Kind::kList:
      *out += "[";
      for (size_t i = 0; i < d.items.size(); ++i) {
        if (i > 0) *out += ",";
        Serialize(d.items[i], out);
      }
      *out += "]";
      return;
    case Val::Kind::kPending:
      *out += "<pending>";
      return;
  }
}

// ------------------------------------------------ cells and suspensions --

CuneiformSource::Cell* CuneiformSource::NewCell() {
  cells_.push_back(std::make_unique<Cell>());
  Cell* cell = cells_.back().get();
  auto ref = std::make_shared<Val>();
  ref->kind = Val::Kind::kPending;
  ref->cell = cell;
  cell->ref = std::move(ref);
  return cell;
}

CuneiformSource::Suspension* CuneiformSource::Suspend(Suspension* s,
                                                      Stop kind,
                                                      const Path& path,
                                                      int depth) {
  if (s == nullptr) {
    suspensions_.push_back(std::make_unique<Suspension>());
    s = suspensions_.back().get();
    s->kind = kind;
    s->cell = NewCell();
  }
  s->path = path;
  s->depth = depth;
  return s;
}

void CuneiformSource::Await(Suspension* s, Cell* cell) {
  cell->waiters.emplace_back(s, s->epoch);
}

void CuneiformSource::Wake(Cell* cell) {
  for (const auto& [s, epoch] : cell->waiters) {
    if (s->epoch == epoch && !s->queued) {
      s->queued = true;
      woken_.push(s);
    }
  }
  cell->waiters.clear();
}

void CuneiformSource::Resolve(Cell* cell, ValPtr value) {
  cell->resolved = true;
  cell->resolved_at = calls_;
  cell->value = std::move(value);
  const Val& d = Follow(cell->value);
  if (d.kind == Val::Kind::kPending && !cell->list_shaped &&
      !d.cell->list_shaped) {
    // Still a plain pending value, so every waiter would block again on
    // the same thing: hand them over instead of waking them.
    std::vector<std::pair<Suspension*, uint64_t>>& next = d.cell->waiters;
    next.insert(next.end(), cell->waiters.begin(), cell->waiters.end());
    cell->waiters.clear();
    return;
  }
  Wake(cell);
}

Status CuneiformSource::Drain(uint32_t* failed_at) {
  while (!woken_.empty()) {
    Suspension* s = woken_.top();
    woken_.pop();
    s->queued = false;
    ++s->epoch;
    *failed_at = s->path[0];
    HIWAY_RETURN_IF_ERROR(Resume(s));
  }
  return Status::OK();
}

Status CuneiformSource::Resume(Suspension* s) {
  Path path = s->path;
  Result<ValPtr> next = ValPtr();
  switch (s->kind) {
    case Stop::kIf:
      path.pop_back();
      next = IfFrom(*s->expr, s->env, s->depth, path, s->blocker, s);
      break;
    case Stop::kConcat:
      path.pop_back();
      next = ConcatFrom(*s->expr, s->env, s->depth, path, s->part, s->blocker,
                        std::move(s->text), s);
      break;
    case Stop::kApply: {
      uint32_t first_combination = path.back();
      path.pop_back();
      next = ApplyFrom(*s->def, std::move(s->args), path, first_combination,
                       s);
      break;
    }
    case Stop::kCombination:
      next = CombinationFrom(*s->def, std::move(s->args), path, s);
      break;
  }
  HIWAY_RETURN_IF_ERROR(next.status());
  if (next->get() == s->cell->ref.get()) return Status::OK();  // re-armed
  // Done: release what it held before publishing the value.
  s->env.reset();
  s->blocker.reset();
  s->args = std::vector<ValPtr>();
  s->text = std::string();
  s->path = Path();
  Resolve(s->cell, std::move(next).value());
  return Status::OK();
}

// ----------------------------------------------------------- driving ------

Result<std::vector<TaskSpec>> CuneiformSource::Fail(Status status,
                                                    uint32_t failed_at) {
  failed_ = status;
  discovered_ = nullptr;
  woken_ = {};
  // What a from-root evaluation that stopped at the same point would
  // still hold as its targets: the previous call's, if it stopped in a
  // let; the targets before the failing one, if it stopped in a target.
  if (failed_at < program_.lets.size()) {
    targets_view_ = calls_ - 1;
  } else {
    targets_.resize(std::min<size_t>(targets_.size(),
                                     failed_at - program_.lets.size()));
  }
  return status;
}

void CuneiformSource::UpdateDone() {
  Cell* blocker = nullptr;
  done_ = std::all_of(targets_.begin(), targets_.end(),
                      [&](const ValPtr& v) { return IsConcrete(v, &blocker); });
}

Result<std::vector<TaskSpec>> CuneiformSource::Init() {
  if (!failed_.ok()) return failed_;
  ++calls_;
  std::vector<TaskSpec> discovered;
  discovered_ = &discovered;
  // Top-level lets evaluate in order; later bindings may shadow earlier.
  EnvPtr env;
  Path path(1);
  for (size_t i = 0; i < program_.lets.size(); ++i) {
    const auto& [name, expr] = program_.lets[i];
    path.assign(1, static_cast<uint32_t>(i));
    Result<ValPtr> v = Eval(*expr, env, 0, path);
    if (!v.ok()) return Fail(v.status(), path[0]);
    env = std::make_shared<Env>(Env{&name, std::move(v).value(), env});
  }
  targets_.clear();
  for (size_t j = 0; j < program_.targets.size(); ++j) {
    path.assign(1, static_cast<uint32_t>(program_.lets.size() + j));
    Result<ValPtr> v = Eval(*program_.targets[j], env, 0, path);
    if (!v.ok()) return Fail(v.status(), path[0]);
    targets_.push_back(std::move(v).value());
  }
  UpdateDone();
  discovered_ = nullptr;
  return discovered;
}

Result<std::vector<TaskSpec>> CuneiformSource::OnTaskCompleted(
    const TaskResult& result) {
  if (!failed_.ok()) return failed_;
  if (result.id < 1 || result.id > static_cast<TaskId>(apps_.size())) {
    return Status::InvalidArgument(
        StrFormat("completion for unknown task %lld",
                  static_cast<long long>(result.id)));
  }
  const AppEntry& entry = apps_[static_cast<size_t>(result.id - 1)];
  if (entry.cell->resolved) return std::vector<TaskSpec>{};
  // Bind declared outputs to produced files / the stdout value.
  const std::vector<OutDecl>& outputs = entry.def->outputs;
  std::vector<ValPtr> bound;
  bound.reserve(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    bound.push_back(outputs[i].is_value
                        ? Val::String(result.stdout_value)
                        : Val::File(entry.output_paths[i]));
  }
  ++calls_;
  std::vector<TaskSpec> discovered;
  discovered_ = &discovered;
  Resolve(entry.cell, bound.size() == 1 ? std::move(bound[0])
                                        : Val::List(std::move(bound)));
  uint32_t failed_at = 0;
  Status st = Drain(&failed_at);
  if (!st.ok()) return Fail(std::move(st), failed_at);
  UpdateDone();
  discovered_ = nullptr;
  return discovered;
}

std::vector<std::string> CuneiformSource::Targets() const {
  std::vector<std::string> out;
  // Flatten file paths of resolved targets, as of call targets_view_.
  std::function<void(const ValPtr&)> visit = [&](const ValPtr& v) {
    const Val& d = Follow(v);
    if (d.kind == Val::Kind::kPending) return;
    if (v->kind == Val::Kind::kPending &&
        v->cell->resolved_at > targets_view_) {
      return;
    }
    if (d.kind == Val::Kind::kFile) out.push_back(d.str);
    if (d.kind == Val::Kind::kList) {
      for (const ValPtr& item : d.items) visit(item);
    }
  };
  for (const ValPtr& v : targets_) visit(v);
  return out;
}

// --------------------------------------------------------- evaluation -----

Result<CuneiformSource::ValPtr> CuneiformSource::Eval(const Expr& expr,
                                                      const EnvPtr& env,
                                                      int depth, Path& path) {
  if (depth > options_.max_eval_depth) {
    return Status::RuntimeError(StrFormat(
        "evaluation depth limit (%d) exceeded at line %d — unbounded "
        "static recursion?",
        options_.max_eval_depth, expr.line));
  }
  switch (expr.kind) {
    case Expr::Kind::kString:
      return Val::String(expr.str);
    case Expr::Kind::kVar: {
      for (const Env* e = env.get(); e != nullptr; e = e->parent.get()) {
        if (*e->name == expr.str) return e->value;
      }
      return Status::InvalidArgument(StrFormat(
          "undefined variable '%s' at line %d", expr.str.c_str(),
          expr.line));
    }
    case Expr::Kind::kList: {
      std::vector<ValPtr> items;
      items.reserve(expr.items.size());
      for (size_t i = 0; i < expr.items.size(); ++i) {
        path.push_back(static_cast<uint32_t>(i));
        HIWAY_ASSIGN_OR_RETURN(ValPtr v,
                               Eval(*expr.items[i], env, depth + 1, path));
        path.pop_back();
        items.push_back(std::move(v));
      }
      return Val::List(std::move(items));
    }
    case Expr::Kind::kConcat: {
      if (expr.items.empty()) return Val::String("");
      path.push_back(0);
      HIWAY_ASSIGN_OR_RETURN(ValPtr first,
                             Eval(*expr.items[0], env, depth + 1, path));
      path.pop_back();
      return ConcatFrom(expr, env, depth, path, 0, std::move(first), "",
                        nullptr);
    }
    case Expr::Kind::kIf: {
      path.push_back(0);
      HIWAY_ASSIGN_OR_RETURN(ValPtr cond,
                             Eval(*expr.cond, env, depth + 1, path));
      path.pop_back();
      return IfFrom(expr, env, depth, path, std::move(cond), nullptr);
    }
    case Expr::Kind::kApply:
      return EvalApply(expr, env, depth, path);
  }
  return Status::RuntimeError("unreachable expression kind");
}

Result<CuneiformSource::ValPtr> CuneiformSource::ConcatFrom(
    const Expr& expr, const EnvPtr& env, int depth, Path& path, size_t i,
    ValPtr part, std::string text, Suspension* s) {
  while (true) {
    const Val& v = Follow(part);
    if (v.kind == Val::Kind::kPending && !v.cell->list_shaped) {
      Cell* blocker = v.cell;
      path.push_back(static_cast<uint32_t>(i + 1));
      s = Suspend(s, Stop::kConcat, path, depth);
      path.pop_back();
      s->expr = &expr;
      s->env = env;
      s->blocker = std::move(part);
      s->part = i;
      s->text = std::move(text);
      Await(s, blocker);
      return s->cell->ref;
    }
    if (v.kind == Val::Kind::kList || v.kind == Val::Kind::kPending) {
      return Status::InvalidArgument(StrFormat(
          "cannot concatenate a list at line %d", expr.line));
    }
    text += v.str;
    if (++i == expr.items.size()) return Val::String(std::move(text));
    path.push_back(static_cast<uint32_t>(i));
    HIWAY_ASSIGN_OR_RETURN(part, Eval(*expr.items[i], env, depth + 1, path));
    path.pop_back();
  }
}

Result<CuneiformSource::ValPtr> CuneiformSource::IfFrom(
    const Expr& expr, const EnvPtr& env, int depth, Path& path, ValPtr cond,
    Suspension* s) {
  Cell* blocker = nullptr;
  path.push_back(1);
  if (!IsConcrete(cond, &blocker)) {
    // Data-dependent control flow: suspend both branches until the
    // condition's task(s) finish. This is what makes the language
    // iterative without unbounded task graphs.
    s = Suspend(s, Stop::kIf, path, depth);
    path.pop_back();
    s->expr = &expr;
    s->env = env;
    s->blocker = std::move(cond);
    Await(s, blocker);
    return s->cell->ref;
  }
  const Expr& branch =
      Truthy(Follow(cond)) ? *expr.then_branch : *expr.else_branch;
  HIWAY_ASSIGN_OR_RETURN(ValPtr v, Eval(branch, env, depth + 1, path));
  path.pop_back();
  return v;
}

Result<CuneiformSource::ValPtr> CuneiformSource::EvalApply(const Expr& expr,
                                                           const EnvPtr& env,
                                                           int depth,
                                                           Path& path) {
  auto task_it = program_.tasks.find(expr.str);
  if (task_it != program_.tasks.end()) {
    const TaskDef& def = task_it->second;
    // Task application: named arguments only.
    std::map<std::string, ValPtr> named;
    for (size_t i = 0; i < expr.args.size(); ++i) {
      const auto& [name, value_expr] = expr.args[i];
      if (name.empty()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' requires named arguments (line %d)",
            expr.str.c_str(), expr.line));
      }
      path.push_back(static_cast<uint32_t>(i));
      HIWAY_ASSIGN_OR_RETURN(ValPtr v,
                             Eval(*value_expr, env, depth + 1, path));
      path.pop_back();
      named[name] = std::move(v);
    }
    // Check arity.
    for (const ParamDecl& param : def.inputs) {
      if (named.find(param.name) == named.end()) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' missing argument '%s'", def.name.c_str(),
            param.name.c_str()));
      }
    }
    if (named.size() != def.inputs.size()) {
      return Status::InvalidArgument(StrFormat(
          "task '%s' called with %zu arguments, expects %zu",
          def.name.c_str(), named.size(), def.inputs.size()));
    }
    std::vector<ValPtr> args;
    args.reserve(def.inputs.size());
    for (const ParamDecl& param : def.inputs) {
      args.push_back(std::move(named[param.name]));
    }
    return ApplyFrom(def, std::move(args), path,
                     static_cast<uint32_t>(expr.args.size()), nullptr);
  }
  auto fun_it = program_.funs.find(expr.str);
  if (fun_it != program_.funs.end()) {
    const FunDef& def = fun_it->second;
    if (expr.args.size() != def.params.size()) {
      return Status::InvalidArgument(StrFormat(
          "function '%s' expects %zu arguments, got %zu (line %d)",
          def.name.c_str(), def.params.size(), expr.args.size(), expr.line));
    }
    EnvPtr local;  // defuns close over nothing but their parameters
    for (size_t i = 0; i < def.params.size(); ++i) {
      if (!expr.args[i].first.empty() &&
          expr.args[i].first != def.params[i]) {
        return Status::InvalidArgument(StrFormat(
            "function '%s' argument %zu is named '%s', expected '%s'",
            def.name.c_str(), i, expr.args[i].first.c_str(),
            def.params[i].c_str()));
      }
      path.push_back(static_cast<uint32_t>(i));
      HIWAY_ASSIGN_OR_RETURN(
          ValPtr v, Eval(*expr.args[i].second, env, depth + 1, path));
      path.pop_back();
      local = std::make_shared<Env>(Env{&def.params[i], std::move(v), local});
    }
    path.push_back(static_cast<uint32_t>(def.params.size()));
    HIWAY_ASSIGN_OR_RETURN(ValPtr body,
                           Eval(*def.body, local, depth + 1, path));
    path.pop_back();
    return body;
  }
  return Status::InvalidArgument(StrFormat(
      "'%s' is neither a task nor a function (line %d)", expr.str.c_str(),
      expr.line));
}

Result<CuneiformSource::ValPtr> CuneiformSource::ApplyFrom(
    const TaskDef& def, std::vector<ValPtr> args, Path& path,
    uint32_t first_combination, Suspension* s) {
  // Implicit map/cross: each *single* parameter bound to a list expands
  // the application over the cross product of such lists (Cuneiform's
  // second-order behaviour). Aggregating ([x]) parameters consume their
  // whole list in one invocation. A single parameter bound to a pending
  // value may yet turn out to be a list, so the shape is only known once
  // every such value is resolved.
  std::vector<size_t> mapped;
  std::vector<Cell*> shape_pending;
  bool empty_list = false;
  for (size_t i = 0; i < def.inputs.size(); ++i) {
    if (def.inputs[i].is_list) continue;
    const Val& v = Follow(args[i]);
    if (v.kind == Val::Kind::kList) {
      mapped.push_back(i);
      empty_list = empty_list || v.items.empty();
    } else if (v.kind == Val::Kind::kPending) {
      if (v.cell->list_shaped) mapped.push_back(i);
      shape_pending.push_back(v.cell);
    }
  }
  // Mapping over an empty list yields an empty list (no invocations).
  if (!mapped.empty() && empty_list) return Val::List({});

  if (!shape_pending.empty()) {
    path.push_back(first_combination);
    s = Suspend(s, Stop::kApply, path, 0);
    path.pop_back();
    s->def = &def;
    s->args = std::move(args);
    // Mapped over a list, every combination waits on the pending
    // argument: the value is a list of pending elements until then.
    if (!mapped.empty() && !s->cell->list_shaped) {
      s->cell->list_shaped = true;
      Wake(s->cell);
    }
    for (Cell* cell : shape_pending) Await(s, cell);
    return s->cell->ref;
  }

  if (mapped.empty()) {
    path.push_back(first_combination);
    HIWAY_ASSIGN_OR_RETURN(ValPtr v,
                           CombinationFrom(def, std::move(args), path,
                                           nullptr));
    path.pop_back();
    return v;
  }

  // Enumerate the cross product (deterministic, row-major order). Each
  // combination binds pointers to the list elements — the lists are
  // shared, never copied.
  std::vector<const Val*> lists;
  for (size_t i : mapped) lists.push_back(&Follow(args[i]));
  std::vector<ValPtr> results;
  std::vector<size_t> index(mapped.size(), 0);
  uint32_t combination = first_combination;
  while (true) {
    std::vector<ValPtr> bound = args;
    for (size_t j = 0; j < mapped.size(); ++j) {
      bound[mapped[j]] = lists[j]->items[index[j]];
    }
    path.push_back(combination++);
    HIWAY_ASSIGN_OR_RETURN(ValPtr v,
                           CombinationFrom(def, std::move(bound), path,
                                           nullptr));
    path.pop_back();
    results.push_back(std::move(v));
    // Advance the odometer.
    size_t pos = mapped.size();
    while (pos > 0) {
      --pos;
      if (++index[pos] < lists[pos]->items.size()) break;
      index[pos] = 0;
      if (pos == 0) return Val::List(std::move(results));
    }
  }
}

Result<CuneiformSource::ValPtr> CuneiformSource::CombinationFrom(
    const TaskDef& def, std::vector<ValPtr> bound, Path& path,
    Suspension* s) {
  // Pending arguments suspend this combination entirely; sibling
  // combinations still proceed (eager per-element evaluation).
  Cell* blocker = nullptr;
  for (const ValPtr& v : bound) {
    if (!IsConcrete(v, &blocker)) {
      s = Suspend(s, Stop::kCombination, path, 0);
      s->def = &def;
      s->args = std::move(bound);
      Await(s, blocker);
      return s->cell->ref;
    }
  }
  return InvokeConcrete(def, bound);
}

Result<CuneiformSource::ValPtr> CuneiformSource::InvokeConcrete(
    const TaskDef& def, const std::vector<ValPtr>& bound) {
  // Validate argument shapes.
  for (size_t i = 0; i < def.inputs.size(); ++i) {
    const ParamDecl& param = def.inputs[i];
    const Val& v = Follow(bound[i]);
    if (param.is_list) {
      if (v.kind != Val::Kind::kList) {
        return Status::InvalidArgument(StrFormat(
            "task '%s' parameter [%s] requires a list", def.name.c_str(),
            param.name.c_str()));
      }
    } else if (v.kind == Val::Kind::kList) {
      return Status::RuntimeError("unexpanded list argument");
    }
  }

  // Memo key: the concrete application, serialised once.
  std::string key = def.name + "(";
  for (size_t i = 0; i < def.inputs.size(); ++i) {
    key += def.inputs[i].name;
    key += "=";
    Serialize(bound[i], &key);
    key += ";";
  }
  key += ")";

  auto [it, inserted] = memo_.emplace(key, apps_.size());
  if (!inserted) {
    const Cell* cell = apps_[it->second].cell;
    return cell->resolved ? cell->value : cell->ref;
  }

  // New concrete application: synthesise a TaskSpec.
  AppEntry entry;
  entry.def = &def;
  entry.cell = NewCell();
  TaskSpec spec;
  spec.id = static_cast<TaskId>(apps_.size()) + 1;
  spec.signature = def.name;
  spec.tool = def.tool;
  for (size_t i = 0; i < def.inputs.size(); ++i) {
    const ParamDecl& param = def.inputs[i];
    const Val& v = Follow(bound[i]);
    if (param.is_list) {
      int files = 0;
      for (const ValPtr& item_ptr : v.items) {
        const Val& item = Follow(item_ptr);
        if (item.kind == Val::Kind::kFile) {
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
  const uint64_t key_hash = Fnv1a64(key);
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
                         static_cast<unsigned long long>(key_hash),
                         out.name.c_str());
    }
    entry.output_paths.push_back(o.path);
    spec.outputs.push_back(std::move(o));
  }
  spec.command = std::move(key);
  ValPtr pending = entry.cell->ref;
  apps_.push_back(std::move(entry));
  discovered_->push_back(std::move(spec));
  return pending;
}

}  // namespace hiway
