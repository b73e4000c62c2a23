//! # aion-query — temporal Cypher (Sec. 3 "Temporal Cypher")
//!
//! A hand-written lexer + recursive-descent parser (the role javaCC plays
//! in the paper) and one pull-pipeline executor (*bind source → filter →
//! sink*) that routes through [`aion::Aion`]'s planner. The supported
//! grammar covers the constructs the paper introduces and evaluates
//! (Figs. 1a–c, Sec. 5.1 procedures, Sec. 6.7):
//!
//! ```text
//! query      := [use] (match | create | call)
//! use        := "USE" "GDB" "FOR" "SYSTEM_TIME" timespec
//! timespec   := "AS" "OF" t
//!             | "FROM" t "TO" t
//!             | "BETWEEN" t "AND" t
//!             | "CONTAINED" "IN" "(" t "," t ")"
//! match      := "MATCH" pattern ("," pattern)* ["WHERE" predicates]
//!               (return | set | delete | create)
//! pattern    := node [rel node]
//! node       := "(" [var] [":" label] [props] ")"
//! rel        := "-[" [var] [":" type] ["*" hops] [props] "]->"
//!             | "<-[" … "]-" | "-[" … "]-"
//! predicates := pred ("AND" pred)*
//! pred       := "id(" var ")" "=" (int | param)
//!             | var "." key op literal
//!             | "APPLICATION_TIME" "CONTAINED" "IN" "(" t "," t ")"
//! return     := "RETURN" item ("," item)*
//!               ["ORDER" "BY" item ["ASC" | "DESC"]] ["LIMIT" int]
//! item       := var | var "." key | "id(" var ")" | "count(" var ")"
//! create     := "CREATE" pattern ("," pattern)*
//! set        := "SET" var "." key "=" literal
//! delete     := "DELETE" var ("," var)*
//! call       := "CALL" name ("." name)* "(" [literal ("," literal)*] ")"
//! ```
//!
//! Entity ids come from the `_id` property in `CREATE` patterns (the
//! reproduction's stand-in for Neo4j's internal id allocation), and `$name`
//! parameters are resolved from a parameter map at execution time.

pub mod ast;
mod bind;
pub mod cursor;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::Query;
pub use cursor::{fingerprint, peek_snapshot_ts, Anchor, CursorToken};
pub use exec::{
    execute, execute_paged, execute_with_budget, is_read_only, ExecBudget, Page, Params,
    QueryResult,
};
pub use parser::parse;
pub use value::Value;
