#include "sqlgraph/sql_random_walk.h"

#include "exec/plan_builder.h"
#include "sqlgraph/sql_common.h"

namespace vertexica {

Result<Table> SqlRandomWalkWithRestart(const Table& vertices,
                                       const Table& edges, int64_t source,
                                       int iterations,
                                       double restart_probability) {
  const double c = restart_probability;

  const auto edge_table = BorrowTable(edges);
  const auto vertex_table = BorrowTable(vertices);
  VX_ASSIGN_OR_RETURN(
      Table outdeg,
      PlanBuilder::Scan(edge_table)
          .Aggregate({"src"}, {{AggOp::kCountStar, "", "outdeg"}})
          .Execute());
  VX_ASSIGN_OR_RETURN(
      Table edge_deg_table,
      PlanBuilder::Scan(edge_table)
          .Select({"src", "dst"})
          .Join(PlanBuilder::Scan(std::move(outdeg)), {"src"}, {"src"})
          .Select({"src", "dst", "outdeg"})
          .Execute());
  // Scanned every iteration, so held once rather than copied per scan.
  const auto edge_deg =
      std::make_shared<const Table>(std::move(edge_deg_table));

  // score_0 = e_source.
  VX_ASSIGN_OR_RETURN(
      Table score,
      PlanBuilder::Scan(vertex_table)
          .Project({{"id", Col("id")},
                    {"score", If(Eq(Col("id"), Lit(source)), Lit(1.0),
                                 Lit(0.0))}})
          .Execute());

  for (int it = 0; it < iterations; ++it) {
    VX_ASSIGN_OR_RETURN(
        Table sums,
        PlanBuilder::Scan(edge_deg)
            .Join(PlanBuilder::Scan(std::move(score)), {"src"}, {"id"})
            .Filter(Gt(Col("score"), Lit(0.0)))
            .Project({{"dst", Col("dst")},
                      {"m", Div(Col("score"), Col("outdeg"))}})
            .Aggregate({"dst"}, {{AggOp::kSum, "m", "s"}})
            .Execute());
    VX_ASSIGN_OR_RETURN(
        score,
        PlanBuilder::Scan(vertex_table)
            .Join(PlanBuilder::Scan(std::move(sums)), {"id"}, {"dst"},
                  JoinType::kLeft)
            .Project({{"id", Col("id")},
                      {"score",
                       Add(Mul(Lit(1.0 - c), Coalesce(Col("s"), Lit(0.0))),
                           If(Eq(Col("id"), Lit(source)), Lit(c),
                              Lit(0.0)))}})
            .Execute());
  }
  return score;
}

Result<std::vector<double>> SqlRandomWalkWithRestart(
    const Graph& graph, int64_t source, int iterations,
    double restart_probability) {
  VX_ASSIGN_OR_RETURN(
      Table score,
      SqlRandomWalkWithRestart(MakeVertexListTable(graph),
                               MakeEdgeListTable(graph), source, iterations,
                               restart_probability));
  std::vector<double> out(static_cast<size_t>(graph.num_vertices), 0.0);
  const auto& ids = score.column(0).ints();
  const auto& scores = score.column(1).doubles();
  for (size_t i = 0; i < ids.size(); ++i) {
    out[static_cast<size_t>(ids[i])] = scores[i];
  }
  return out;
}

}  // namespace vertexica
