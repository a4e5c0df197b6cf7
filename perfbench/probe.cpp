//===--- probe.cpp - Input generator and traced pipeline for perfbench ----===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's in-process helper. Two subcommands:
///
///   spa_perfbench_probe gen SHAPE SIZE SEED
///       Writes one Generator program to stdout. SHAPE is `mixed` (the
///       bench/scaling mixed shape: structs, casts, heap, pointer
///       arithmetic) or `uaf` (the same plus free, branch, loop-free and
///       realloc shapes).
///
///   spa_perfbench_probe trace MODEL FILE SARIF_OUT RECORD_OUT
///       Runs the `spa_cli --engine=scc --model=MODEL --check --flow=cfg
///       --certify --sarif=SARIF_OUT FILE` pipeline in-process and writes
///       one JSON object to RECORD_OUT: a span per layer entry point
///       (nanoseconds), the work counts of the public result structs, and
///       record_ns, the time of the probe's own extra work (the
///       baseline count and building this record).
///
/// Exit codes: 0 success, 1 compile or I/O error, 64 usage error.
///
//===----------------------------------------------------------------------===//

#include "cfront/Parser.h"
#include "check/Checkers.h"
#include "check/Sarif.h"
#include "flow/FlowPass.h"
#include "norm/Normalizer.h"
#include "pta/Frontend.h"
#include "support/Json.h"
#include "verify/Certifier.h"
#include "workload/Generator.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>

using namespace spa;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nsSince(Clock::time_point Start) {
  auto Elapsed = Clock::now() - Start;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Elapsed).count());
}

/// Times one call and adds its duration to \p Ns.
template <typename Fn> auto span(uint64_t &Ns, Fn &&Body) {
  Clock::time_point Start = Clock::now();
  if constexpr (std::is_void_v<decltype(Body())>) {
    Body();
    Ns += nsSince(Start);
  } else {
    auto Result = Body();
    Ns += nsSince(Start);
    return Result;
  }
}

/// The solver engine of every traced run: spa_cli's `--engine=scc`. This
/// is the only place the traced run chooses its engine.
SolverOptions tracedEngineOptions() {
  SolverOptions Opts;
  Opts.UseWorklist = true;
  Opts.DeltaPropagation = true;
  Opts.CycleElimination = true;
  return Opts;
}

bool parseModel(const char *Name, ModelKind &Out) {
  static const struct {
    const char *Name;
    ModelKind Kind;
  } Models[] = {{"ca", ModelKind::CollapseAlways},
                {"coc", ModelKind::CollapseOnCast},
                {"cis", ModelKind::CommonInitialSeq},
                {"off", ModelKind::Offsets}};
  for (const auto &M : Models)
    if (!std::strcmp(Name, M.Name)) {
      Out = M.Kind;
      return true;
    }
  return false;
}

int generate(const char *Shape, const char *Size, const char *Seed) {
  unsigned SizeClass = static_cast<unsigned>(std::strtoul(Size, nullptr, 10));
  if (SizeClass == 0)
    return 64;
  // The mixed shape is bench/scaling's generatedSource at SizeClass.
  GeneratorConfig Config;
  Config.Seed = std::strtoull(Seed, nullptr, 10);
  Config.NumStructs = 4 + SizeClass;
  Config.NumStructVars = 6 * SizeClass;
  Config.NumInts = 4 * SizeClass;
  Config.NumPtrVars = 4 * SizeClass;
  Config.NumFunctions = 2 * SizeClass;
  Config.StmtsPerFunction = 30;
  Config.UseHeap = true;
  if (!std::strcmp(Shape, "uaf")) {
    Config.FreePercent = 15;
    Config.BranchPercent = 15;
    Config.LoopFreePercent = 10;
    Config.ReallocPercent = 5;
  } else if (std::strcmp(Shape, "mixed")) {
    std::fprintf(stderr, "unknown shape '%s' (mixed | uaf)\n", Shape);
    return 64;
  }
  std::fputs(generateProgram(Config).c_str(), stdout);
  return 0;
}

/// Sites the flow-insensitive freed mark reports: the denominator of the
/// flow pass's suppression ratio (FlowResult::ReportsSuppressed counts the
/// subset the refinement drops).
uint64_t baselineUafSites(Solver &S) {
  const NormProgram &Prog = S.program();
  uint64_t Sites = 0;
  for (const DerefSite &Site : Prog.DerefSites)
    for (NodeId T : S.derefTargets(Site))
      if (S.isFreed(S.model().nodes().objectOf(T))) {
        ++Sites;
        break;
      }
  return Sites;
}

int trace(const char *ModelName, const std::string &File,
          const std::string &SarifOut, const std::string &RecordOut) {
  AnalysisOptions AOpts;
  if (!parseModel(ModelName, AOpts.Model)) {
    std::fprintf(stderr, "unknown model '%s' (ca | coc | cis | off)\n",
                 ModelName);
    return 64;
  }
  AOpts.Solver = tracedEngineOptions();

  std::ifstream In(File, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", File.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  // The tables CompiledProgram::fromSource owns, built here so parse and
  // normalize get a span each.
  StringInterner Strings;
  TypeTable Types;
  TranslationUnit TU(Types, Strings);
  NormProgram Prog(Types, Strings);
  DiagnosticEngine Diags;
  uint64_t ParseNs = 0, NormNs = 0, InitNs = 0, SolveNs = 0, CertifyNs = 0,
           FlowNs = 0, CheckNs = 0, SarifNs = 0;

  bool Parsed = span(ParseNs, [&] {
    Parser TheParser(Source, TU, Diags, AOpts.Target);
    return TheParser.parseTranslationUnit();
  });
  if (Parsed)
    span(NormNs, [&] { Normalizer(TU, Prog, Diags).run(); });
  if (!Parsed || Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.formatAll().c_str());
    return 1;
  }
  std::unique_ptr<Analysis> A =
      span(InitNs, [&] { return std::make_unique<Analysis>(Prog, AOpts); });
  span(SolveNs, [&] { A->run(); });
  Solver &S = A->solver();
  const SolverRunStats &RS = S.runStats();
  CertifyResult CR;
  FlowResult FR;
  if (RS.Converged) {
    CR = span(CertifyNs, [&] { return certifySolution(S); });
    FR = span(FlowNs, [&] { return runFlowPass(S, FlowMode::Cfg); });
  }
  DiagnosticEngine CheckDiags;
  CheckReport Report =
      span(CheckNs, [&] { return runCheckers(*A, {}, CheckDiags); });
  std::string Sarif =
      span(SarifNs, [&] { return findingsToSarif(CheckDiags, File); });

  // The emit, as spa_cli does it: the SARIF file, then every finding on
  // stdout.
  FILE *Out = std::fopen(SarifOut.c_str(), "w");
  if (!Out || std::fwrite(Sarif.data(), 1, Sarif.size(), Out) != Sarif.size()) {
    if (Out)
      std::fclose(Out);
    std::fprintf(stderr, "cannot write '%s'\n", SarifOut.c_str());
    return 1;
  }
  std::fclose(Out);
  std::fputs(CheckDiags.formatAll().c_str(), stdout);
  std::printf("%u finding(s)\n", Report.Findings);

  // Work spa_cli does not do: the baseline count and this record. Its time
  // (record_ns, up to the record's own small write) lets run.py leave it
  // out of the cli layer.
  Clock::time_point RecordStart = Clock::now();
  uint64_t Baseline = RS.Converged ? baselineUafSites(S) : 0;
  uint64_t Changed = 0;
  for (uint64_t N : RS.RuleChanged)
    Changed += N;
  const ModelStats &MS = A->model().stats();
  std::string Json;
  JsonWriter W(Json);
  W.open(nullptr);
  W.field("parse_ns", ParseNs);
  W.field("normalize_ns", NormNs);
  W.field("init_ns", InitNs);
  W.field("solve_ns", SolveNs);
  W.field("certify_ns", CertifyNs);
  W.field("flow_ns", FlowNs);
  W.field("check_ns", CheckNs);
  W.field("sarif_ns", SarifNs);
  W.field("stmts", uint64_t(Prog.Stmts.size()));
  W.field("cfg_blocks", FR.CfgBlocks);
  W.field("cfg_edges", FR.CfgEdges);
  W.field("converged", RS.Converged);
  W.field("pops", RS.Pops);
  W.field("stmts_applied", RS.StmtsApplied);
  W.field("rules_changed", Changed);
  W.field("edges", RS.Edges);
  W.field("nodes", uint64_t(RS.Nodes));
  W.field("sccs_collapsed", RS.SccsCollapsed);
  W.field("lookup_calls", MS.LookupCalls);
  W.field("resolve_calls", MS.ResolveCalls);
  W.field("bytes_high_water", uint64_t(RS.BytesHighWater));
  W.field("certify_ok", CR.ok());
  W.field("obligations", CR.Obligations);
  W.field("facts_total", CR.FactsTotal);
  W.field("join_merges", FR.JoinMerges);
  W.field("sites_refined", FR.SitesRefined);
  W.field("reports_suppressed", FR.ReportsSuppressed);
  W.field("baseline_reports", Baseline);
  W.field("findings", uint64_t(Report.Findings));
  W.field("sarif_bytes", uint64_t(Sarif.size()));
  W.field("record_ns", nsSince(RecordStart));
  W.close();
  Json += '\n';
  FILE *Record = std::fopen(RecordOut.c_str(), "w");
  bool Written = Record && std::fwrite(Json.data(), 1, Json.size(),
                                       Record) == Json.size();
  if (Record && std::fclose(Record) != 0)
    Written = false;
  if (!Written) {
    std::fprintf(stderr, "cannot write '%s'\n", RecordOut.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 5 && !std::strcmp(argv[1], "gen"))
    return generate(argv[2], argv[3], argv[4]);
  if (argc == 6 && !std::strcmp(argv[1], "trace"))
    return trace(argv[2], argv[3], argv[4], argv[5]);
  std::fprintf(stderr, "usage: %s gen SHAPE SIZE SEED\n"
                       "       %s trace MODEL FILE SARIF_OUT RECORD_OUT\n",
               argv[0], argv[0]);
  return 64;
}
