/// \file graph_tables.h
/// \brief Physical graph storage (§2.2): the vertex, edge and message
/// relational tables, their schemas, and the loader.
///
/// - vertex(id INT64, halted BOOL, v0..v{a-1} DOUBLE)   — id, value, state
/// - edge(src INT64, dst INT64, weight DOUBLE)
/// - message(src INT64, dst INT64, m0..m{b-1} DOUBLE)   — sender, receiver,
///   value
///
/// The §2.3 "table union" of the three is logical: the superstep workers
/// read each vertex's row, edges and messages in place
/// (vertexica/worker_driver.h) instead of materializing a common-schema
/// union table.

#ifndef VERTEXICA_VERTEXICA_GRAPH_TABLES_H_
#define VERTEXICA_VERTEXICA_GRAPH_TABLES_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "graphgen/graph.h"
#include "storage/table.h"
#include "vertexica/vertex_program.h"

namespace vertexica {

/// \brief Catalog names of the three graph tables (prefixable so multiple
/// graphs / versions coexist, e.g. for temporal analysis).
struct GraphTableNames {
  std::string vertex = "vertex";
  std::string edge = "edge";
  std::string message = "message";

  static GraphTableNames WithPrefix(const std::string& prefix) {
    return GraphTableNames{prefix + "vertex", prefix + "edge",
                           prefix + "message"};
  }
};

/// \brief vertex(id, halted, v0..v{arity-1}).
Schema MakeVertexSchema(int value_arity);

/// \brief edge(src, dst, weight).
Schema MakeEdgeSchema();

/// \brief message(src, dst, m0..m{arity-1}).
Schema MakeMessageSchema(int message_arity);

/// \brief Materializes the three tables for `graph` into the catalog
/// (replacing existing ones). Vertex values are initialized via
/// `program.InitValue`; the message table starts empty. Equivalent to
/// LoadEdgeTable + LoadProgramTables.
Status LoadGraphTables(Catalog* catalog, const Graph& graph,
                       const VertexProgram& program,
                       const GraphTableNames& names = {});

/// \brief Materializes only the edge table: sorted (src, dst), RLE source
/// column, zone maps. Program-independent, so the serving path builds it
/// once per graph at Prepare time and shares the immutable result across
/// concurrent runs (each run's private catalog references the same table).
Status LoadEdgeTable(Catalog* catalog, const Graph& graph,
                     const GraphTableNames& names = {});

/// \brief Materializes the program-dependent tables — vertex (values via
/// `program.InitValue`) and the empty message table — without touching the
/// edge table.
Status LoadProgramTables(Catalog* catalog, const Graph& graph,
                         const VertexProgram& program,
                         const GraphTableNames& names = {});

/// \brief Reads component `component` of every vertex value into a dense
/// vector indexed by vertex id; a duplicated id reports its last row.
/// InvalidArgument when `id` is not a non-NULL INT64 column, `v<component>`
/// is not DOUBLE, or an id is negative.
Result<std::vector<double>> ReadVertexValues(const Catalog& catalog,
                                             const GraphTableNames& names,
                                             int component = 0);

/// \brief Copy of `t` with an extra INT64 column `name` = row number.
Table WithRowNumbers(const Table& t, const std::string& name);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_GRAPH_TABLES_H_
