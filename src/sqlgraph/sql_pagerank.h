/// \file sql_pagerank.h
/// \brief PageRank as pure relational plans (join + aggregate per
/// iteration) — the "Vertexica (SQL)" series of Figure 2(a).

#ifndef VERTEXICA_SQLGRAPH_SQL_PAGERANK_H_
#define VERTEXICA_SQLGRAPH_SQL_PAGERANK_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/plan_builder.h"
#include "graphgen/graph.h"
#include "storage/table.h"

namespace vertexica {

/// \brief Iterative SQL PageRank.
///
/// Per iteration (the classic two-join/one-aggregate plan):
/// \code{.sql}
///   CREATE TABLE contrib AS
///     SELECT e.dst, r.rank / o.outdeg AS c
///     FROM edge e JOIN rank r ON e.src = r.id
///                 JOIN outdeg o ON e.src = o.src;
///   CREATE TABLE rank AS
///     SELECT v.id, (1-d)/N + d * COALESCE(SUM(c), 0) AS rank
///     FROM vertex v LEFT JOIN contrib ON v.id = contrib.dst GROUP BY v.id;
/// \endcode
///
/// \param vertices table with an `id` column
/// \param edges    table with `src`/`dst` columns
/// \returns table (id, rank)
Result<Table> SqlPageRank(const Table& vertices, const Table& edges,
                          int iterations = 10, double damping = 0.85);

/// \brief One iteration's contribution plan: `SUM(rank / outdeg)` per `dst`
/// over `edge_deg (src, dst, outdeg) ⋈ rank (id, rank)` on `src = id`. The
/// join, the projection and the GROUP BY run as one pipeline
/// (exec/join_aggregate.h).
PlanBuilder SqlPageRankContributions(std::shared_ptr<const Table> edge_deg,
                                     Table rank);

/// \brief Convenience overload; returns ranks indexed by vertex id.
///
/// \deprecated Prefer `Engine::Run({.algorithm = "pagerank", .backend =
/// "sqlgraph"})` — see api/engine.h and docs/API.md.
Result<std::vector<double>> SqlPageRank(const Graph& graph,
                                        int iterations = 10,
                                        double damping = 0.85);

}  // namespace vertexica

#endif  // VERTEXICA_SQLGRAPH_SQL_PAGERANK_H_
