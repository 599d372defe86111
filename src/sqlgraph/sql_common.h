/// \file sql_common.h
/// \brief Shared helpers for the hand-written SQL graph algorithms
/// ("Vertexica (SQL)" in Figure 2 — "hand-coded and meticulously optimized
/// SQL implementations of graph algorithms").

#ifndef VERTEXICA_SQLGRAPH_SQL_COMMON_H_
#define VERTEXICA_SQLGRAPH_SQL_COMMON_H_

#include <memory>

#include "common/result.h"
#include "graphgen/graph.h"
#include "storage/table.h"

namespace vertexica {

/// \brief A non-owning handle to `table` for PlanBuilder::Scan: the plans of
/// an algorithm scan the caller's vertex and edge tables in place instead
/// of copying them once per scan. `table` must outlive every plan built
/// over the handle.
std::shared_ptr<const Table> BorrowTable(const Table& table);

/// \brief Table (id INT64) listing every vertex of `g`.
Table MakeVertexListTable(const Graph& g);

/// \brief Table (src, dst, weight) of the directed edges of `g`.
Table MakeEdgeListTable(const Graph& g);

/// \brief Symmetrized simple edge set: both orientations of every edge,
/// duplicates and self-loops removed. Schema (src, dst).
Result<Table> UndirectedEdges(const Table& edges);

/// \brief Canonically oriented simple edge set (src < dst), one row per
/// undirected edge. Schema (src, dst).
Result<Table> OrientedEdges(const Table& edges);

/// \brief Rebuilds a Graph from an edge table (columns src, dst, optional
/// weight). num_vertices = max endpoint + 1.
Result<Graph> GraphFromEdgeTable(const Table& edges);

}  // namespace vertexica

#endif  // VERTEXICA_SQLGRAPH_SQL_COMMON_H_
