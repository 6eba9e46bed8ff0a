// mcm_analyze — whole-program architectural analyzer for the mcm tree.
//
// Where scripts/mcm_lint.py checks one file at a time, this tool builds a
// cross-translation-unit model of the library (include edges, class/mutex
// declarations, per-function lock acquisitions and call sites, env-knob
// reads, distance-evaluation sites) and enforces four project contracts,
// each runnable on its own as a ctest:
//
//   layering    Every `#include "mcm/<dir>/..."` edge must be allowed by
//               the checked-in ARCHITECTURE.manifest, the manifest must be
//               an acyclic DAG, and every source directory must be
//               declared. Generalizes (and retires) the historical
//               check_index_headers.py: index isolation, "engine below the
//               indexes", "check above them" are all just manifest rows.
//
//   lock-order  Builds the per-function mutex-acquisition graph — which
//               capabilities a function acquires, locally and transitively
//               through calls — and flags (a) acquisition cycles between
//               mutexes (potential deadlock once the involved paths run
//               concurrently) and (b) re-entrant acquisition of a
//               non-recursive mutex through a call chain.
//
//   knobs       Every GetEnv{Int,Double,String}("MCM_...") call site must
//               name a knob declared in KNOBS.manifest and documented in
//               README.md, and every declared knob must still have a call
//               site — undocumented runtime switches and stale docs both
//               fail the build.
//
//   accounting  Index code (mtree/vptree/gnat/baseline) computes distances
//               only through the engine's sanctioned entry points
//               (GuardedDistanceWithin(chain, capacity, stored, eval, x,
//               bound, st) / CountedDistanceWithin(eval, x, bound, st),
//               defined in engine/witness.h and nowhere else), never
//               passes a null QueryStats to them, and every direct
//               evaluation in a stats-carrying function, of the metric
//               (metric_(a, b)) or of a query evaluator (eval(x)), charges
//               exactly one distance_computations tick. An evaluator is a
//               name bound to PrepareQuery(...) or declared with a
//               QueryEvaluator<...> type (metric/prepared.h).
//
// Usage:
//   mcm_analyze --rule layering|lock-order|knobs|accounting --root <dir>
//   mcm_analyze --all --root <dir>
//   mcm_analyze --selftest <fixtures-dir>
//
// <dir> is a repo-shaped root: src/mcm/** + tools/*.cc are scanned and
// ARCHITECTURE.manifest / KNOBS.manifest / README.md are read from it. The
// self-test runs each rule over a seeded fixture tree (one mini-root per
// rule under <fixtures-dir>) and requires every planted violation — and
// nothing else — to be reported.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;  // Repo-relative path.
  int line = 0;
  std::string rule;
  std::string message;

  std::string Format() const {
    std::ostringstream out;
    out << file << ":" << line << ": [" << rule << "] " << message;
    return out.str();
  }
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

// ---------------------------------------------------------------------------
// Lexer: comment/string-aware tokenization with line numbers
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kPunct, kString };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct SourceFile {
  std::string rel_path;    // Relative to the scanned root.
  std::string top_dir;     // "common", "storage", ... or "tools".
  std::vector<Token> tokens;
  // (line, included top-level dir under mcm/, full include path).
  struct Include {
    int line;
    std::string dir;
    std::string path;
  };
  std::vector<Include> includes;
};

// Tokenizes C++: skips comments, collapses string/char literals into one
// kString token, records `#include "mcm/..."` directives, drops every
// other preprocessor line.
void Tokenize(const std::string& text, SourceFile* out) {
  const size_t n = text.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    if (at_line_start && c == '#') {
      // Preprocessor directive: record mcm includes, skip the rest (keep
      // line counting; directives can be continued with backslashes).
      size_t j = i;
      std::string directive;
      while (j < n && text[j] != '\n') {
        if (text[j] == '\\' && j + 1 < n && text[j + 1] == '\n') {
          ++line;
          j += 2;
          continue;
        }
        directive.push_back(text[j]);
        ++j;
      }
      size_t quote = directive.find("include");
      if (quote != std::string::npos) {
        size_t open = directive.find('"', quote);
        if (open != std::string::npos) {
          size_t close = directive.find('"', open + 1);
          if (close != std::string::npos) {
            std::string inc = directive.substr(open + 1, close - open - 1);
            if (StartsWith(inc, "mcm/")) {
              size_t slash = inc.find('/', 4);
              std::string dir = slash == std::string::npos
                                    ? inc.substr(4)
                                    : inc.substr(4, slash - 4);
              out->includes.push_back({line, dir, inc});
            }
          }
        }
      }
      i = j;
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == '"') {
      // String literal (handles escapes; raw strings are treated as plain
      // strings, good enough for analysis input).
      size_t j = i + 1;
      std::string value;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) {
          value.push_back(text[j + 1]);
          j += 2;
          continue;
        }
        if (text[j] == '\n') ++line;
        value.push_back(text[j]);
        ++j;
      }
      out->tokens.push_back({TokKind::kString, value, line});
      i = j + 1;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && text[j] != '\'') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      out->tokens.push_back({TokKind::kString, "'", line});
      i = j + 1;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_')) {
        ++j;
      }
      out->tokens.push_back({TokKind::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '.' || text[j] == '\'')) {
        ++j;
      }
      out->tokens.push_back({TokKind::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Two-char operators the scanner cares about; everything else is a
    // single punctuation token.
    if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      out->tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out->tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '+' && i + 1 < n && text[i + 1] == '+') {
      out->tokens.push_back({TokKind::kPunct, "++", line});
      i += 2;
      continue;
    }
    out->tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Scanned tree
// ---------------------------------------------------------------------------

struct Tree {
  fs::path root;
  std::vector<SourceFile> files;      // src/mcm/** and tools/*.cc|h
  std::set<std::string> source_dirs;  // Top-level dirs under src/mcm.
};

bool IsSourceExt(const fs::path& p) {
  return p.extension() == ".h" || p.extension() == ".cc" ||
         p.extension() == ".cpp";
}

// Top-level program directories: scanned (their includes and env-knob
// reads are checked) but not part of the library layer DAG — the manifest
// declares them as wildcard layers.
bool IsProgramDir(const std::string& dir) {
  return dir == "tools" || dir == "bench" || dir == "examples";
}

std::optional<Tree> ScanTree(const fs::path& root) {
  Tree tree;
  tree.root = root;
  const fs::path src = root / "src" / "mcm";
  if (!fs::is_directory(src)) {
    std::cerr << "error: " << src.string() << " is not a directory\n";
    return std::nullopt;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && IsSourceExt(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  for (const char* program_dir : {"tools", "bench", "examples"}) {
    const fs::path dir = root / program_dir;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && IsSourceExt(entry.path())) {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    SourceFile sf;
    sf.rel_path = fs::relative(path, root).generic_string();
    const fs::path rel = fs::relative(path, root);
    auto it = rel.begin();
    if (IsProgramDir(it->generic_string())) {
      sf.top_dir = it->generic_string();
    } else {
      // src/mcm/<dir>/...
      ++it;  // mcm
      ++it;  // <dir>
      sf.top_dir = it->generic_string();
      // A file directly under src/mcm would make *it the filename; the
      // tree never does that, but guard against extension-looking dirs.
      tree.source_dirs.insert(sf.top_dir);
    }
    Tokenize(ReadFile(path), &sf);
    tree.files.push_back(std::move(sf));
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Rule: layering (ARCHITECTURE.manifest include-layer DAG)
// ---------------------------------------------------------------------------

struct LayerManifest {
  // layer -> allowed dependency dirs. A "*" entry means "anything".
  std::map<std::string, std::set<std::string>> allowed;
  std::set<std::string> wildcard;  // Layers allowed to include anything.
};

std::optional<LayerManifest> ParseLayerManifest(const fs::path& path,
                                                std::vector<Violation>* out) {
  std::ifstream in(path);
  if (!in) {
    out->push_back({path.filename().string(), 0, "layering",
                    "missing ARCHITECTURE.manifest (declare the include "
                    "DAG: `layer <dir> = <allowed deps...>`)"});
    return std::nullopt;
  }
  LayerManifest manifest;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::vector<std::string> words = SplitWords(line);
    if (words.empty()) continue;
    if (words[0] != "layer" || words.size() < 3 || words[2] != "=") {
      out->push_back({path.filename().string(), lineno, "layering",
                      "unparsable manifest line (expected `layer <dir> = "
                      "[deps...]`): " + line});
      continue;
    }
    const std::string& name = words[1];
    auto& deps = manifest.allowed[name];
    for (size_t i = 3; i < words.size(); ++i) {
      if (words[i] == "*") {
        manifest.wildcard.insert(name);
      } else {
        deps.insert(words[i]);
      }
    }
  }
  return manifest;
}

// Depth-first cycle check over the declared layer DAG.
bool ManifestHasCycle(const LayerManifest& m, std::string* cycle_desc) {
  std::map<std::string, int> state;  // 0 = new, 1 = on stack, 2 = done.
  std::vector<std::string> stack;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& layer) -> bool {
    state[layer] = 1;
    stack.push_back(layer);
    auto it = m.allowed.find(layer);
    if (it != m.allowed.end()) {
      for (const auto& dep : it->second) {
        if (dep == layer) continue;  // Self-deps are just redundant.
        if (m.allowed.count(dep) == 0) continue;
        if (state[dep] == 1) {
          std::ostringstream out;
          for (const auto& s : stack) out << s << " -> ";
          out << dep;
          *cycle_desc = out.str();
          return true;
        }
        if (state[dep] == 0 && visit(dep)) return true;
      }
    }
    state[layer] = 2;
    stack.pop_back();
    return false;
  };
  for (const auto& [layer, deps] : m.allowed) {
    (void)deps;
    if (state[layer] == 0 && visit(layer)) return true;
  }
  return false;
}

std::vector<Violation> CheckLayering(const Tree& tree) {
  std::vector<Violation> out;
  auto manifest =
      ParseLayerManifest(tree.root / "ARCHITECTURE.manifest", &out);
  if (!manifest) return out;

  std::string cycle;
  if (ManifestHasCycle(*manifest, &cycle)) {
    out.push_back({"ARCHITECTURE.manifest", 0, "layering",
                   "declared layer graph has a cycle: " + cycle});
  }
  for (const auto& dir : tree.source_dirs) {
    if (manifest->allowed.count(dir) == 0) {
      out.push_back({"src/mcm/" + dir, 0, "layering",
                     "directory is not declared in ARCHITECTURE.manifest "
                     "(add a `layer " + dir + " = ...` row)"});
    }
  }
  for (const auto& [layer, deps] : manifest->allowed) {
    if (IsProgramDir(layer)) continue;
    if (tree.source_dirs.count(layer) == 0) {
      out.push_back({"ARCHITECTURE.manifest", 0, "layering",
                     "declared layer `" + layer +
                         "` has no directory src/mcm/" + layer +
                         " (stale manifest row)"});
    }
    for (const auto& dep : deps) {
      if (!IsProgramDir(dep) && tree.source_dirs.count(dep) == 0) {
        out.push_back({"ARCHITECTURE.manifest", 0, "layering",
                       "layer `" + layer + "` allows dependency on `" + dep +
                           "`, which is not a source directory"});
      }
    }
  }
  for (const auto& sf : tree.files) {
    const bool wildcard = manifest->wildcard.count(sf.top_dir) > 0;
    auto it = manifest->allowed.find(sf.top_dir);
    for (const auto& inc : sf.includes) {
      if (inc.dir == sf.top_dir) continue;
      if (wildcard) continue;
      if (it == manifest->allowed.end() || it->second.count(inc.dir) == 0) {
        out.push_back(
            {sf.rel_path, inc.line, "layering",
             sf.top_dir + "/ may not include mcm/" + inc.dir +
                 "/ (#include \"" + inc.path +
                 "\"): not an allowed dependency in ARCHITECTURE.manifest"});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule: knobs (KNOBS.manifest + README registry of MCM_* env switches)
// ---------------------------------------------------------------------------

struct KnobSite {
  std::string file;
  int line;
  std::string knob;
};

std::vector<KnobSite> FindKnobReads(const Tree& tree) {
  std::vector<KnobSite> sites;
  for (const auto& sf : tree.files) {
    const auto& toks = sf.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& name = toks[i].text;
      if (name != "GetEnvInt" && name != "GetEnvDouble" &&
          name != "GetEnvString") {
        continue;
      }
      if (toks[i + 1].text != "(") continue;
      if (toks[i + 2].kind == TokKind::kString &&
          StartsWith(toks[i + 2].text, "MCM_")) {
        sites.push_back({sf.rel_path, toks[i + 2].line, toks[i + 2].text});
      }
    }
  }
  return sites;
}

std::vector<Violation> CheckKnobs(const Tree& tree) {
  std::vector<Violation> out;
  // Parse KNOBS.manifest: first word of each non-comment line is a knob.
  std::map<std::string, int> declared;  // knob -> manifest line.
  {
    std::ifstream in(tree.root / "KNOBS.manifest");
    if (!in) {
      out.push_back({"KNOBS.manifest", 0, "knobs",
                     "missing KNOBS.manifest (declare every MCM_* "
                     "environment knob, one per line)"});
      return out;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      std::vector<std::string> words = SplitWords(line);
      if (words.empty()) continue;
      if (!StartsWith(words[0], "MCM_")) {
        out.push_back({"KNOBS.manifest", lineno, "knobs",
                       "knob names must start with MCM_: " + words[0]});
        continue;
      }
      declared.emplace(words[0], lineno);
    }
  }
  const std::string readme = ReadFile(tree.root / "README.md");
  if (readme.empty()) {
    out.push_back({"README.md", 0, "knobs",
                   "missing README.md (the knob table lives there)"});
  }

  const std::vector<KnobSite> sites = FindKnobReads(tree);
  std::set<std::string> used;
  for (const auto& site : sites) {
    used.insert(site.knob);
    if (declared.count(site.knob) == 0) {
      out.push_back({site.file, site.line, "knobs",
                     "undeclared env knob " + site.knob +
                         ": add it to KNOBS.manifest and to the README "
                         "knob table (no undocumented runtime switches)"});
    }
  }
  for (const auto& [knob, lineno] : declared) {
    if (used.count(knob) == 0) {
      out.push_back({"KNOBS.manifest", lineno, "knobs",
                     "stale knob " + knob +
                         ": declared but no GetEnv* call site reads it"});
    }
    // Documented = the knob name appears anywhere in the README (the
    // table renders it in backticks, but any mention satisfies the rule).
    if (!readme.empty() && readme.find(knob) == std::string::npos) {
      out.push_back({"KNOBS.manifest", lineno, "knobs",
                     "undocumented knob " + knob +
                         ": declared in the manifest but absent from "
                         "README.md"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope-aware function scanner, shared by lock-order and accounting
// ---------------------------------------------------------------------------

const std::set<std::string>& CppKeywords() {
  static const std::set<std::string> kw = {
      "if",       "else",    "for",      "while",    "do",     "switch",
      "case",     "return",  "break",    "continue", "sizeof", "new",
      "delete",   "throw",   "try",      "catch",    "static", "const",
      "constexpr", "mutable", "virtual", "override", "final",  "inline",
      "template", "typename", "class",   "struct",   "enum",   "namespace",
      "using",    "public",  "private",  "protected", "operator", "default",
      "noexcept", "explicit", "friend",  "auto",     "void",   "bool",
      "int",      "char",    "double",   "float",    "long",   "short",
      "unsigned", "signed",  "goto",     "requires", "concept", "typedef",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "static_assert", "decltype", "co_return", "co_await", "co_yield",
      "alignof",  "alignas", "this",     "nullptr",  "true",   "false",
  };
  return kw;
}

// Calls with these names are never treated as calls into the project
// function database: they collide with STL container/iterator methods and
// would otherwise attach false transitive lock acquisitions.
const std::set<std::string>& CallDenyList() {
  static const std::set<std::string> deny = {
      "size",  "empty", "clear",  "begin",  "end",     "find",  "erase",
      "insert", "push_back", "pop_back", "emplace", "emplace_back", "count",
      "at",    "front", "back",   "data",   "reserve", "resize", "swap",
      "get",   "reset", "release", "lock",  "unlock",  "try_lock", "c_str",
      "str",   "load",  "store",  "exchange", "fetch_add", "fetch_sub",
      "push_front", "pop_front", "splice", "assign", "substr", "append",
  };
  return deny;
}

struct MutexDecl {
  std::string qualified;  // e.g. "BufferPool::Shard::mu".
  std::string member;     // e.g. "mu".
  std::string owner;      // e.g. "BufferPool::Shard".
};

struct CallSite {
  std::string callee;  // Unqualified name.
  int line;
  std::vector<std::string> held;  // Qualified mutex ids held at the call.
};

struct AcquireSite {
  std::string mutex_id;  // Qualified.
  int line;
  std::vector<std::string> held_before;  // Held when this was acquired.
};

struct FunctionInfo {
  std::string qualified;  // "Class::Name" or "Name".
  std::string name;       // Last component.
  std::string file;
  int line = 0;
  std::vector<std::string> enclosing_classes;  // Innermost last.
  std::vector<AcquireSite> acquires;
  std::vector<CallSite> calls;
  // --- accounting facts ---
  bool has_stats_param = false;    // Takes a QueryStats* parameter.
  int direct_metric_calls = 0;     // metric_(...) / eval(...) sites.
  int first_metric_line = 0;
  std::set<std::string> evaluators;  // Query-evaluator names in scope.
  int charge_increments = 0;       // ++st->distance_computations sites.
  std::vector<std::pair<int, std::string>> guarded_calls;  // line, last arg.
  std::vector<std::pair<int, std::string>> banned_calls;   // line, name.
  bool defines_entry_point = false;
  int entry_point_line = 0;
};

// At a `QueryEvaluator <` type, possibly inside another template's
// arguments (std::vector<QueryEvaluator<M, O>>), returns the name it
// declares: the identifier after the closing `>`s and any `&`, `*` or
// `const`. Empty when the tokens are no such declaration.
std::string EvaluatorDeclName(const std::vector<Token>& toks, size_t i,
                              size_t end) {
  if (i + 1 > end || toks[i + 1].text != "<") return "";
  int angle = 0;
  size_t j = i + 1;
  for (; j <= end; ++j) {
    const std::string& w = toks[j].text;
    if (w == "<") ++angle;
    if (w == ">" && --angle == 0) break;
    if (w == ";" || w == "{" || w == "}") return "";
  }
  for (++j; j <= end; ++j) {
    const std::string& w = toks[j].text;
    if (w != ">" && w != "&" && w != "*" && w != "const") break;
  }
  if (j <= end && toks[j].kind == TokKind::kIdent &&
      CppKeywords().count(toks[j].text) == 0) {
    return toks[j].text;
  }
  return "";
}

// At a `PrepareQuery (` call, returns the name its result initializes
// (`eval = PrepareQuery(...)`, `auto eval(PrepareQuery(...))` or
// `auto eval{PrepareQuery(...)}`, namespace qualifiers allowed). Empty
// when the result goes anywhere else, e.g. straight into an argument.
std::string PreparedName(const std::vector<Token>& toks, size_t i) {
  size_t b = i;
  while (b >= 2 && toks[b - 1].text == "::" &&
         toks[b - 2].kind == TokKind::kIdent) {
    b -= 2;
  }
  if (b < 2 || toks[b - 2].kind != TokKind::kIdent ||
      CppKeywords().count(toks[b - 2].text) != 0) {
    return "";
  }
  const std::string& init = toks[b - 1].text;
  if (init == "=") return toks[b - 2].text;
  if (init != "(" && init != "{") return "";
  // `name(` / `name{` initializes a declaration only after a type.
  if (b < 3) return "";
  const Token& before = toks[b - 3];
  if (before.text == "&" || before.text == "*" || before.text == ">" ||
      before.text == "auto" ||
      (before.kind == TokKind::kIdent &&
       CppKeywords().count(before.text) == 0)) {
    return toks[b - 2].text;
  }
  return "";
}

struct ProgramModel {
  std::vector<MutexDecl> mutexes;
  std::vector<FunctionInfo> functions;
};

bool IsMutexType(const std::vector<Token>& toks, size_t i, size_t* type_len) {
  // Recognizes: Mutex, mcm::Mutex, std::mutex, std::shared_mutex at
  // position i; sets *type_len to the token count consumed.
  if (toks[i].text == "Mutex") {
    *type_len = 1;
    return true;
  }
  if (i + 2 < toks.size() && toks[i].text == "mcm" &&
      toks[i + 1].text == "::" && toks[i + 2].text == "Mutex") {
    *type_len = 3;
    return true;
  }
  if (i + 2 < toks.size() && toks[i].text == "std" &&
      toks[i + 1].text == "::" &&
      (toks[i + 2].text == "mutex" || toks[i + 2].text == "shared_mutex")) {
    *type_len = 3;
    return true;
  }
  return false;
}

// Extracts the trailing member of a lock-expression token run, e.g.
// ["shard", ".", "mu"] -> "mu"; ["&", "mu_"] -> "mu_".
std::string TrailingMember(const std::vector<Token>& expr) {
  for (auto it = expr.rbegin(); it != expr.rend(); ++it) {
    if (it->kind == TokKind::kIdent) return it->text;
  }
  return "";
}

// The model builder walks each file's token stream once, tracking
// namespace/class scopes and function bodies by brace depth.
class ModelBuilder {
 public:
  explicit ModelBuilder(ProgramModel* model) : model_(model) {}

  // Declarations must be visible across the whole program before any body
  // is scanned (a .cc sorts before its .h, and lock expressions resolve
  // against every class's mutex members), hence the two phases.
  void AddDeclarations(const SourceFile& sf) {
    if (SkipFile(sf)) return;
    file_ = &sf;
    CollectMutexDecls();
  }

  void AddBodies(const SourceFile& sf) {
    if (SkipFile(sf)) return;
    file_ = &sf;
    CollectFunctions();
  }

 private:
  // common/mutex.h defines the locking primitives themselves; modeling
  // its internals would alias every lock through Mutex::mu_.
  static bool SkipFile(const SourceFile& sf) {
    return sf.rel_path.find("common/mutex.h") != std::string::npos;
  }

  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
    std::string name;
  };

  // Pass 1: class-scope mutex members. Tracks class nesting via brace
  // scanning; a mutex member is `[mutable] <mutex-type> <ident> ;`.
  void CollectMutexDecls() {
    const auto& toks = file_->tokens;
    std::vector<std::pair<std::string, int>> classes;  // name, depth-at-open
    int depth = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == "}") {
        --depth;
        while (!classes.empty() && classes.back().second > depth) {
          classes.pop_back();
        }
        continue;
      }
      if ((t.text == "class" || t.text == "struct") && t.kind ==
              TokKind::kIdent && i + 1 < toks.size() &&
          toks[i + 1].kind == TokKind::kIdent) {
        // Find the '{' (skip base clauses); bail at ';' (fwd declaration).
        size_t j = i + 2;
        int angle = 0;
        while (j < toks.size()) {
          if (toks[j].text == "<") ++angle;
          if (toks[j].text == ">") --angle;
          if (angle == 0 && (toks[j].text == "{" || toks[j].text == ";")) {
            break;
          }
          ++j;
        }
        if (j < toks.size() && toks[j].text == "{") {
          classes.push_back({toks[i + 1].text, depth + 1});
        }
        continue;
      }
      size_t type_len = 0;
      if (!classes.empty() && t.kind == TokKind::kIdent &&
          IsMutexType(toks, i, &type_len)) {
        const size_t name_at = i + type_len;
        if (name_at < toks.size() &&
            toks[name_at].kind == TokKind::kIdent &&
            name_at + 1 < toks.size() && toks[name_at + 1].text == ";") {
          std::string owner;
          for (const auto& [cls, d] : classes) {
            (void)d;
            if (!owner.empty()) owner += "::";
            owner += cls;
          }
          model_->mutexes.push_back(
              {owner + "::" + toks[name_at].text, toks[name_at].text,
               owner});
          i = name_at + 1;
        }
      }
    }
  }

  // Pass 2: function bodies with lock acquisitions, calls, accounting.
  void CollectFunctions() {
    const auto& toks = file_->tokens;
    std::vector<Scope> scopes;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.text == "namespace" && i + 1 < toks.size()) {
        if (toks[i + 1].kind == TokKind::kIdent &&
            i + 2 < toks.size() && toks[i + 2].text == "{") {
          scopes.push_back({Scope::kNamespace, toks[i + 1].text});
          i += 2;
        } else if (toks[i + 1].text == "{") {  // anonymous
          scopes.push_back({Scope::kNamespace, ""});
          i += 1;
        }
        continue;
      }
      if ((t.text == "class" || t.text == "struct") &&
          i + 1 < toks.size() && toks[i + 1].kind == TokKind::kIdent) {
        size_t j = i + 2;
        int angle = 0;
        while (j < toks.size()) {
          if (toks[j].text == "<") ++angle;
          if (toks[j].text == ">") --angle;
          if (angle == 0 && (toks[j].text == "{" || toks[j].text == ";")) {
            break;
          }
          ++j;
        }
        if (j < toks.size() && toks[j].text == "{") {
          scopes.push_back({Scope::kClass, toks[i + 1].text});
          i = j;
        }
        continue;
      }
      if (t.text == "{") {
        scopes.push_back({Scope::kBlock, ""});
        continue;
      }
      if (t.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        continue;
      }
      // Function definition: ident '(' ... ')' [qualifiers] '{' at
      // namespace/class scope.
      if (t.kind == TokKind::kIdent && i + 1 < toks.size() &&
          toks[i + 1].text == "(" && AtDeclScope(scopes) &&
          CppKeywords().count(t.text) == 0) {
        size_t close = MatchParen(toks, i + 1);
        if (close == 0) continue;
        size_t body = close + 1;
        int angle = 0;
        bool is_def = false;
        while (body < toks.size()) {
          const std::string& w = toks[body].text;
          if (w == "{" && angle == 0) {
            is_def = true;
            break;
          }
          if (w == ";" || w == ",") break;  // Declaration / initializer.
          if (w == "<") ++angle;
          if (w == ">") --angle;
          if (w == ":" && angle == 0) break;  // Constructor init list — the
          // members initialized there never need lock tracking (ctors are
          // single-threaded); skip to the body brace.
          ++body;
        }
        if (!is_def && body < toks.size() && toks[body].text == ":") {
          // Constructor initializer list: scan forward to the body '{'.
          size_t k = body + 1;
          int brace_guard = 0;
          while (k < toks.size()) {
            if (toks[k].text == "(") {
              k = MatchParen(toks, k);
              if (k == 0) break;
            } else if (toks[k].text == "{" && brace_guard == 0) {
              // Either a brace-initializer or the body. A body brace is
              // followed by statements; treat the LAST top-level '{' as
              // the body by checking what follows the matching '}'.
              size_t close_b = MatchBrace(toks, k);
              if (close_b == 0) break;
              if (close_b + 1 >= toks.size() ||
                  (toks[close_b + 1].text != "," &&
                   toks[close_b + 1].text != "{")) {
                // Heuristic: initializer braces are followed by ',' or
                // another initializer; the body brace ends the function.
                body = k;
                is_def = true;
                break;
              }
              k = close_b;
            }
            ++k;
          }
        }
        if (!is_def) continue;
        // Qualified name: collect leading A:: B:: chain before the name.
        // Destructors get a distinct "~Name" so call sites naming the
        // constructor never link to the destructor's acquisitions (guard
        // temporaries destruct in the caller, after locks are released).
        const bool is_dtor = i >= 1 && toks[i - 1].text == "~";
        std::string qualified = (is_dtor ? "~" : "") + t.text;
        {
          size_t b = is_dtor ? i - 1 : i;
          while (b >= 2 && toks[b - 1].text == "::" &&
                 toks[b - 2].kind == TokKind::kIdent) {
            qualified = toks[b - 2].text + "::" + qualified;
            b -= 2;
          }
        }
        FunctionInfo fn;
        fn.name = (is_dtor ? "~" : "") + t.text;
        fn.file = file_->rel_path;
        fn.line = t.line;
        for (const auto& s : scopes) {
          if (s.kind == Scope::kClass) fn.enclosing_classes.push_back(s.name);
        }
        if (!fn.enclosing_classes.empty() &&
            qualified.find("::") == std::string::npos) {
          std::string prefix;
          for (const auto& c : fn.enclosing_classes) prefix += c + "::";
          qualified = prefix + qualified;
        }
        fn.qualified = qualified;
        // Stats parameter? Evaluator parameters?
        for (size_t p = i + 2; p < close; ++p) {
          if (toks[p].text == "QueryStats") fn.has_stats_param = true;
          if (toks[p].text == "QueryEvaluator") {
            const std::string name = EvaluatorDeclName(toks, p, close);
            if (!name.empty()) fn.evaluators.insert(name);
          }
        }
        size_t end = MatchBrace(toks, body);
        if (end == 0) end = toks.size() - 1;
        ScanBody(toks, body, end, &fn);
        model_->functions.push_back(std::move(fn));
        i = end;
        continue;
      }
    }
  }

  static bool AtDeclScope(const std::vector<Scope>& scopes) {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kFunction || it->kind == Scope::kBlock) {
        return false;
      }
    }
    return true;
  }

  static size_t MatchParen(const std::vector<Token>& toks, size_t open) {
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
      if (toks[i].text == "(") ++depth;
      if (toks[i].text == ")") {
        if (--depth == 0) return i;
      }
    }
    return 0;
  }

  static size_t MatchBrace(const std::vector<Token>& toks, size_t open) {
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
      if (toks[i].text == "{") ++depth;
      if (toks[i].text == "}") {
        if (--depth == 0) return i;
      }
    }
    return 0;
  }

  // Resolves a lock expression to qualified mutex ids. Preference order:
  // a mutex member of the innermost enclosing class (or one of its nested
  // structs), else a unique global member-name match, else every match.
  std::vector<std::string> ResolveMutex(const std::string& member,
                                        const FunctionInfo& fn) const {
    std::vector<const MutexDecl*> candidates;
    for (const auto& m : model_->mutexes) {
      if (m.member == member) candidates.push_back(&m);
    }
    if (candidates.empty()) return {};
    if (candidates.size() == 1) return {candidates[0]->qualified};
    // Owner-class hint: the innermost enclosing class for in-class bodies,
    // else the A::B prefix of an out-of-class definition like A::B::Fn.
    std::string cls;
    if (!fn.enclosing_classes.empty()) {
      cls = fn.enclosing_classes.back();
    } else {
      const size_t sep = fn.qualified.rfind("::");
      if (sep != std::string::npos) {
        const size_t prev = fn.qualified.rfind("::", sep - 1);
        cls = prev == std::string::npos
                  ? fn.qualified.substr(0, sep)
                  : fn.qualified.substr(prev + 2, sep - prev - 2);
      }
    }
    if (!cls.empty()) {
      std::vector<std::string> scoped;
      for (const auto* m : candidates) {
        // Owner equals the class or is nested inside it
        // ("BufferPool::Shard" under enclosing class "BufferPool").
        if (m->owner == cls || StartsWith(m->owner, cls + "::") ||
            m->owner.find("::" + cls + "::") != std::string::npos) {
          scoped.push_back(m->qualified);
        }
      }
      if (!scoped.empty()) return scoped;
    }
    std::vector<std::string> all;
    for (const auto* m : candidates) all.push_back(m->qualified);
    return all;
  }

  void ScanBody(const std::vector<Token>& toks, size_t body, size_t end,
                FunctionInfo* fn) {
    struct Held {
      std::string id;
      int depth;      // Brace depth to auto-release at (0 = manual).
      int line;
    };
    std::vector<Held> held;
    int depth = 0;  // Relative depth inside the body.
    auto held_ids = [&held]() {
      std::vector<std::string> ids;
      for (const auto& h : held) ids.push_back(h.id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      return ids;
    };
    auto acquire = [&](const std::vector<std::string>& ids, int at_depth,
                       int line) {
      for (const auto& id : ids) {
        fn->acquires.push_back({id, line, held_ids()});
        held.push_back({id, at_depth, line});
      }
    };

    for (size_t i = body; i <= end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == "}") {
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const Held& h) {
                                    return h.depth == depth;
                                  }),
                   held.end());
        --depth;
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        // ++st->distance_computations / ++stats.distance_computations.
        if (t.text == "++" && i + 1 < toks.size()) {
          size_t j = i + 1;
          // Walk the ident/./->/:: chain.
          std::vector<std::string> chain;
          while (j < toks.size() &&
                 (toks[j].kind == TokKind::kIdent || toks[j].text == "." ||
                  toks[j].text == "->" || toks[j].text == "::")) {
            if (toks[j].kind == TokKind::kIdent) chain.push_back(toks[j].text);
            ++j;
          }
          if (!chain.empty() && chain.back() == "distance_computations") {
            ++fn->charge_increments;
          }
        }
        continue;
      }

      // RAII guards: MutexLock l(&mu); std::lock_guard<..> l(mu); ...
      if (t.text == "MutexLock" || t.text == "lock_guard" ||
          t.text == "unique_lock" || t.text == "scoped_lock") {
        size_t j = i + 1;
        int angle = 0;
        // Skip template args and the guard's variable name.
        while (j < toks.size() && toks[j].text != "(") {
          if (toks[j].text == "<") ++angle;
          if (toks[j].text == ">") --angle;
          if (toks[j].text == ";") break;
          ++j;
        }
        if (j >= toks.size() || toks[j].text != "(") continue;
        size_t close = MatchParen(toks, j);
        if (close == 0) continue;
        // Split top-level args; each may be a mutex expression.
        std::vector<std::vector<Token>> args;
        args.emplace_back();
        int pd = 0, ad = 0;
        for (size_t k = j + 1; k < close; ++k) {
          if (toks[k].text == "(") ++pd;
          if (toks[k].text == ")") --pd;
          if (toks[k].text == "<") ++ad;
          if (toks[k].text == ">") --ad;
          if (toks[k].text == "," && pd == 0 && ad == 0) {
            args.emplace_back();
            continue;
          }
          args.back().push_back(toks[k]);
        }
        bool adopted = false;
        for (const auto& arg : args) {
          for (const auto& tok : arg) {
            if (tok.text == "adopt_lock" || tok.text == "defer_lock") {
              adopted = true;
            }
          }
        }
        if (!adopted) {
          for (const auto& arg : args) {
            const std::string member = TrailingMember(arg);
            if (member.empty()) continue;
            const auto ids = ResolveMutex(member, *fn);
            if (!ids.empty()) acquire(ids, depth, t.line);
          }
        }
        i = close;
        continue;
      }

      // Manual mu.Lock() / mu.Unlock(): held until Unlock or body end.
      if ((t.text == "Lock" || t.text == "Unlock") && i + 1 < toks.size() &&
          toks[i + 1].text == "(" && i >= 2 &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent) {
        const auto ids = ResolveMutex(toks[i - 2].text, *fn);
        if (!ids.empty()) {
          if (t.text == "Lock") {
            acquire(ids, /*at_depth=*/0, t.line);
          } else {
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const Held& h) {
                                        return std::find(ids.begin(),
                                                         ids.end(), h.id) !=
                                               ids.end();
                                      }),
                       held.end());
          }
        }
        i += 1;
        continue;
      }

      // Accounting facts. Evaluator names come into scope at their
      // declaration; a direct evaluation is `metric_(`, `metric(`,
      // `eval(` or `evals[i](`, not reached through `.`, `->` or `::`.
      if (t.text == "QueryEvaluator") {
        const std::string name = EvaluatorDeclName(toks, i, end);
        if (!name.empty()) fn->evaluators.insert(name);
      }
      if (t.text == "PrepareQuery" && i + 1 < toks.size() &&
          toks[i + 1].text == "(") {
        const std::string name = PreparedName(toks, i);
        if (!name.empty()) fn->evaluators.insert(name);
      }
      const bool evaluator = fn->evaluators.count(t.text) != 0;
      if ((t.text == "metric_" || t.text == "metric" || evaluator) &&
          (i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != "->" &&
                      toks[i - 1].text != "::"))) {
        size_t next = i + 1;
        if (evaluator && next < toks.size() && toks[next].text == "[") {
          int bracket = 0;
          for (; next < toks.size(); ++next) {
            if (toks[next].text == "[") ++bracket;
            if (toks[next].text == "]" && --bracket == 0) break;
          }
          ++next;
        }
        if (next < toks.size() && toks[next].text == "(") {
          ++fn->direct_metric_calls;
          if (fn->first_metric_line == 0) fn->first_metric_line = t.line;
        }
      }
      if (t.text == "GuardedDistanceWithin" ||
          t.text == "CountedDistanceWithin") {
        if (i + 1 < toks.size() && toks[i + 1].text == "(") {
          size_t close = MatchParen(toks, i + 1);
          if (close != 0) {
            // Last top-level argument (the QueryStats*).
            int pd = 0, ad = 0;
            size_t last_start = i + 2;
            for (size_t k = i + 2; k < close; ++k) {
              if (toks[k].text == "(" || toks[k].text == "[") ++pd;
              if (toks[k].text == ")" || toks[k].text == "]") --pd;
              if (toks[k].text == "<") ++ad;
              if (toks[k].text == ">") --ad;
              if (toks[k].text == "," && pd == 0 && ad == 0) {
                last_start = k + 1;
              }
            }
            std::string last_arg;
            for (size_t k = last_start; k < close; ++k) {
              if (!last_arg.empty()) last_arg += " ";
              last_arg += toks[k].text;
            }
            fn->guarded_calls.push_back({t.line, last_arg});
          }
        }
      }
      if (t.text == "BoundedDistance" || t.text == "DistanceWithin") {
        if (i + 1 < toks.size() && toks[i + 1].text == "(") {
          fn->banned_calls.push_back({t.line, t.text});
        }
      }

      // Generic call site.
      if (i + 1 < toks.size() && toks[i + 1].text == "(" &&
          CppKeywords().count(t.text) == 0 &&
          CallDenyList().count(t.text) == 0) {
        fn->calls.push_back({t.text, t.line, held_ids()});
      }
    }
  }

  ProgramModel* model_;
  const SourceFile* file_ = nullptr;
};

ProgramModel BuildModel(const Tree& tree) {
  ProgramModel model;
  ModelBuilder builder(&model);
  for (const auto& sf : tree.files) builder.AddDeclarations(sf);
  for (const auto& sf : tree.files) builder.AddBodies(sf);
  return model;
}

// Debug aid (--dump): prints the discovered concurrency model so a human
// can confirm the analysis is not vacuously passing.
void DumpModel(const Tree& tree) {
  ProgramModel model = BuildModel(tree);
  std::cout << "mutexes (" << model.mutexes.size() << "):\n";
  for (const auto& m : model.mutexes) {
    std::cout << "  " << m.qualified << "\n";
  }
  std::cout << "functions (" << model.functions.size() << "):\n";
  for (const auto& fn : model.functions) {
    if (fn.acquires.empty()) continue;
    std::cout << "  " << fn.qualified << " (" << fn.file << ":" << fn.line
              << ")\n";
    for (const auto& a : fn.acquires) {
      std::cout << "    acquires " << a.mutex_id;
      if (!a.held_before.empty()) {
        std::cout << " while holding";
        for (const auto& h : a.held_before) std::cout << " " << h;
      }
      std::cout << " (line " << a.line << ")\n";
    }
    for (const auto& c : fn.calls) {
      if (c.held.empty()) continue;
      std::cout << "    calls " << c.callee << "() holding";
      for (const auto& h : c.held) std::cout << " " << h;
      std::cout << " (line " << c.line << ")\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lock-order (cycles in the cross-TU mutex-acquisition graph)
// ---------------------------------------------------------------------------

std::vector<Violation> CheckLockOrder(const Tree& tree) {
  std::vector<Violation> out;
  ProgramModel model = BuildModel(tree);

  // Index functions by unqualified name (cross-TU linking is by name; the
  // deny list already removed STL-colliding names at call sites).
  std::map<std::string, std::vector<const FunctionInfo*>> by_name;
  for (const auto& fn : model.functions) {
    by_name[fn.name].push_back(&fn);
  }

  // Transitive acquisition sets, memoized; cycles in the *call* graph are
  // broken by the in-progress marker (their fixpoint is the union already
  // accumulated).
  std::map<const FunctionInfo*, std::set<std::string>> memo;
  std::set<const FunctionInfo*> in_progress;
  std::function<const std::set<std::string>&(const FunctionInfo*)> acq =
      [&](const FunctionInfo* fn) -> const std::set<std::string>& {
    auto it = memo.find(fn);
    if (it != memo.end()) return it->second;
    auto& result = memo[fn];
    if (in_progress.count(fn)) return result;
    in_progress.insert(fn);
    for (const auto& a : fn->acquires) result.insert(a.mutex_id);
    for (const auto& call : fn->calls) {
      auto callees = by_name.find(call.callee);
      if (callees == by_name.end()) continue;
      for (const auto* callee : callees->second) {
        if (callee == fn) continue;
        const auto& sub = acq(callee);
        result.insert(sub.begin(), sub.end());
      }
    }
    in_progress.erase(fn);
    return result;
  };

  // Order edges: held -> acquired, from local nesting and from calls made
  // while holding.
  struct Edge {
    std::string file;
    int line;
    std::string via;  // Description of how the edge arises.
  };
  std::map<std::pair<std::string, std::string>, Edge> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line,
                      const std::string& via) {
    edges.emplace(std::make_pair(from, to), Edge{file, line, via});
  };

  for (const auto& fn : model.functions) {
    for (const auto& a : fn.acquires) {
      for (const auto& h : a.held_before) {
        if (h == a.mutex_id) {
          out.push_back({fn.file, a.line, "lock-order",
                         "recursive acquisition of " + a.mutex_id + " in " +
                             fn.qualified +
                             " (already held; std::mutex self-deadlocks)"});
          continue;
        }
        add_edge(h, a.mutex_id, fn.file, a.line,
                 fn.qualified + " acquires " + a.mutex_id + " while holding " +
                     h);
      }
    }
    for (const auto& call : fn.calls) {
      if (call.held.empty()) continue;
      auto callees = by_name.find(call.callee);
      if (callees == by_name.end()) continue;
      std::set<std::string> callee_acq;
      for (const auto* callee : callees->second) {
        const auto& sub = acq(callee);
        callee_acq.insert(sub.begin(), sub.end());
      }
      for (const auto& h : call.held) {
        for (const auto& m : callee_acq) {
          if (m == h) {
            out.push_back(
                {fn.file, call.line, "lock-order",
                 "recursive acquisition of " + h + ": " + fn.qualified +
                     " holds it and calls " + call.callee +
                     "(), which (transitively) acquires it again"});
            continue;
          }
          add_edge(h, m, fn.file, call.line,
                   fn.qualified + " holds " + h + " and calls " +
                       call.callee + "() which acquires " + m);
        }
      }
    }
  }

  // Cycle detection over the mutex-order graph.
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [key, edge] : edges) {
    (void)edge;
    graph[key.first].push_back(key.second);
  }
  std::map<std::string, int> state;
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> visit = [&](const std::string& m) {
    state[m] = 1;
    stack.push_back(m);
    for (const auto& next : graph[m]) {
      if (state[next] == 1) {
        // Found a cycle: next ... stack.back().
        auto at = std::find(stack.begin(), stack.end(), next);
        std::ostringstream desc;
        std::string first_file = "";
        int first_line = 0;
        std::string sig;
        for (auto it = at; it != stack.end(); ++it) {
          desc << *it << " -> ";
          sig += *it + "|";
        }
        desc << next;
        auto e = edges.find({stack.back(), next});
        if (e != edges.end()) {
          first_file = e->second.file;
          first_line = e->second.line;
        }
        if (reported.insert(sig).second) {
          std::string detail = "lock-order cycle (potential deadlock): " +
                               desc.str();
          for (auto it = at; it != stack.end(); ++it) {
            auto to = std::next(it) == stack.end() ? next : *std::next(it);
            auto ed = edges.find({*it, to});
            if (ed != edges.end()) {
              detail += "; " + ed->second.via + " (" + ed->second.file + ":" +
                        std::to_string(ed->second.line) + ")";
            }
          }
          out.push_back({first_file, first_line, "lock-order", detail});
        }
      } else if (state[next] == 0) {
        visit(next);
      }
    }
    stack.pop_back();
    state[m] = 2;
  };
  for (const auto& [m, targets] : graph) {
    (void)targets;
    if (state[m] == 0) visit(m);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule: accounting (sanctioned distance entry points, exact charging)
// ---------------------------------------------------------------------------

bool InIndexDir(const std::string& top_dir) {
  return top_dir == "mtree" || top_dir == "vptree" || top_dir == "gnat" ||
         top_dir == "baseline";
}

std::vector<Violation> CheckAccounting(const Tree& tree) {
  std::vector<Violation> out;
  ProgramModel model = BuildModel(tree);

  // Map file path -> top dir for the functions we collected.
  std::map<std::string, std::string> dir_of;
  for (const auto& sf : tree.files) dir_of[sf.rel_path] = sf.top_dir;

  // (1) The sanctioned entry points are defined in engine/witness.h and
  // nowhere else — a shadow definition would silently fork the ledger.
  for (const auto& fn : model.functions) {
    if (fn.name == "GuardedDistanceWithin" ||
        fn.name == "CountedDistanceWithin") {
      if (fn.file.find("engine/witness.h") == std::string::npos) {
        out.push_back({fn.file, fn.line, "accounting",
                       "shadow definition of sanctioned entry point " +
                           fn.name +
                           " (the only definitions live in "
                           "src/mcm/engine/witness.h)"});
      }
    }
  }

  for (const auto& fn : model.functions) {
    auto dir = dir_of.find(fn.file);
    if (dir == dir_of.end() || !InIndexDir(dir->second)) continue;

    // (2) No direct BoundedDistance / DistanceWithin in index code, of a
    // metric or of a query evaluator.
    for (const auto& [line, name] : fn.banned_calls) {
      out.push_back({fn.file, line, "accounting",
                     "direct " + name + " call in index code (" +
                         fn.qualified +
                         "): prune-site evaluations must go through "
                         "GuardedDistanceWithin(chain, capacity, stored, "
                         "eval, x, bound, st) / CountedDistanceWithin(eval, "
                         "x, bound, st) so every computed or avoided "
                         "distance is charged exactly once"});
    }

    // (3) Sanctioned calls must charge a real QueryStats (never nullptr).
    for (const auto& [line, last_arg] : fn.guarded_calls) {
      if (last_arg == "nullptr" || last_arg == "NULL") {
        out.push_back({fn.file, line, "accounting",
                       "sanctioned distance call in " + fn.qualified +
                           " passes a null QueryStats: the evaluation "
                           "would not be charged to any counter"});
      }
    }

    // (4) Exactly-one-charge: a stats-carrying index function that
    // evaluates the metric or a query evaluator directly must pair every
    // evaluation with one distance_computations tick (the Dist()-helper
    // discipline).
    if (fn.has_stats_param && fn.direct_metric_calls > 0 &&
        fn.charge_increments != fn.direct_metric_calls) {
      std::ostringstream msg;
      msg << fn.qualified << " evaluates the metric directly "
          << fn.direct_metric_calls << " time(s) but charges "
          << "distance_computations " << fn.charge_increments
          << " time(s); every direct evaluation (metric_(a, b) or a "
          << "query evaluator's eval(x)) in a stats-carrying function "
          << "must tick the ledger exactly once (or route through "
          << "GuardedDistanceWithin / CountedDistanceWithin)";
      out.push_back(
          {fn.file, fn.first_metric_line, "accounting", msg.str()});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

using RuleFn = std::vector<Violation> (*)(const Tree&);

const std::map<std::string, RuleFn>& Rules() {
  static const std::map<std::string, RuleFn> rules = {
      {"layering", &CheckLayering},
      {"lock-order", &CheckLockOrder},
      {"knobs", &CheckKnobs},
      {"accounting", &CheckAccounting},
  };
  return rules;
}

int RunRules(const fs::path& root, const std::vector<std::string>& names) {
  auto tree = ScanTree(root);
  if (!tree) return 2;
  int total = 0;
  size_t files = tree->files.size();
  for (const auto& name : names) {
    auto rule = Rules().find(name);
    if (rule == Rules().end()) {
      std::cerr << "error: unknown rule " << name << "\n";
      return 2;
    }
    std::vector<Violation> violations = rule->second(*tree);
    for (const auto& v : violations) {
      std::cerr << v.Format() << "\n";
    }
    total += static_cast<int>(violations.size());
  }
  if (total > 0) {
    std::cerr << total << " violation(s).\n";
    return 1;
  }
  std::cout << "OK: " << files << " files clean under ";
  for (size_t i = 0; i < names.size(); ++i) {
    std::cout << (i ? ", " : "") << names[i];
  }
  std::cout << ".\n";
  return 0;
}

// Self-test: every fixture dir is a mini repo root seeded with violations.
// Its EXPECTED file lists one substring per line; each must match at least
// one reported violation and the total count must equal the number of
// expectations (so the rule neither misses plants nor invents extras).
int RunSelfTest(const fs::path& fixtures) {
  struct Case {
    std::string dir;
    std::string rule;
  };
  const std::vector<Case> cases = {
      {"layering", "layering"},
      {"lock_order", "lock-order"},
      {"knobs", "knobs"},
      {"accounting", "accounting"},
  };
  int failures = 0;
  for (const auto& c : cases) {
    const fs::path root = fixtures / c.dir;
    auto tree = ScanTree(root);
    if (!tree) {
      std::cerr << "selftest: missing fixture " << root.string() << "\n";
      ++failures;
      continue;
    }
    std::vector<Violation> violations = Rules().at(c.rule)(*tree);
    std::vector<std::string> expectations;
    {
      std::ifstream in(root / "EXPECTED");
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) expectations.push_back(line);
      }
    }
    if (expectations.empty()) {
      std::cerr << "selftest[" << c.rule << "]: fixture has no EXPECTED "
                << "entries\n";
      ++failures;
      continue;
    }
    bool ok = true;
    for (const auto& expect : expectations) {
      bool found = false;
      for (const auto& v : violations) {
        if (v.Format().find(expect) != std::string::npos) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "selftest[" << c.rule << "]: planted violation not "
                  << "detected: " << expect << "\n";
        ok = false;
      }
    }
    if (violations.size() != expectations.size()) {
      std::cerr << "selftest[" << c.rule << "]: expected "
                << expectations.size() << " violation(s), got "
                << violations.size() << ":\n";
      for (const auto& v : violations) {
        std::cerr << "  " << v.Format() << "\n";
      }
      ok = false;
    }
    if (ok) {
      std::cout << "selftest[" << c.rule << "]: " << expectations.size()
                << " planted violation(s) detected, no extras.\n";
    } else {
      ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << "selftest: " << failures << " fixture(s) failed.\n";
    return 1;
  }
  std::cout << "selftest OK.\n";
  return 0;
}

void Usage() {
  std::cerr
      << "usage: mcm_analyze --rule "
         "layering|lock-order|knobs|accounting --root <dir>\n"
         "       mcm_analyze --all --root <dir>\n"
         "       mcm_analyze --selftest <fixtures-dir>\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> rules;
  fs::path root;
  fs::path selftest;
  bool all = false;
  bool dump = false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--rule" && i + 1 < args.size()) {
      rules.push_back(args[++i]);
    } else if (args[i] == "--root" && i + 1 < args.size()) {
      root = args[++i];
    } else if (args[i] == "--all") {
      all = true;
    } else if (args[i] == "--dump") {
      dump = true;
    } else if (args[i] == "--selftest" && i + 1 < args.size()) {
      selftest = args[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (!selftest.empty()) {
    return RunSelfTest(selftest);
  }
  if (dump) {
    if (root.empty()) {
      Usage();
      return 2;
    }
    auto tree = ScanTree(root);
    if (!tree) return 2;
    DumpModel(*tree);
    return 0;
  }
  if (root.empty() || (rules.empty() && !all)) {
    Usage();
    return 2;
  }
  if (all) {
    rules.clear();
    for (const auto& [name, fn] : Rules()) {
      (void)fn;
      rules.push_back(name);
    }
  }
  return RunRules(root, rules);
}
