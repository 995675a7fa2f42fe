//! `cdb` — an interactive constraint database shell.
//!
//! ```text
//! $ cargo run -p constraintdb --bin cdb
//! cdb> define S(x, y) := 4*x^2 - y - 20*x + 25 <= 0
//! cdb> query exists y (S(x, y) and y <= 0)
//! (4*x^2 - 20*x + 25 <= 0)
//! cdb> solve exists y (S(x, y) and y <= 0)
//! x = 5/2
//! cdb> query z = SURFACE[x, y]{ S(x, y) and y <= 9 }
//! (z - 18 = 0)
//! cdb> fp 3 exists y (S(x, y) and y <= 0)
//! undefined (finite precision semantics, k = 3)
//! ```
//!
//! Commands: `define`, `query`, `solve`, `fp <k>`, `datalog <file>`,
//! `schema`, `save <file>`, `load <file>`, `help`, `quit`.

use cdb_calcf::{Parser, Token};
use constraintdb::{parse_program, storage, ConstraintDb, QueryResult};
use std::io::{BufRead, Write};

fn main() {
    let mut db = ConstraintDb::new();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("constraintdb shell — `help` for commands");
    loop {
        print!("cdb> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "quit" | "exit" => break,
            "help" => help(),
            "schema" => {
                for (name, arity) in db.schema() {
                    println!("  {name}/{arity}");
                }
            }
            "define" => define(&mut db, rest),
            "query" => match db.query(rest) {
                Ok(q) => print_query(&q),
                Err(e) => println!("error: {e}"),
            },
            "solve" => match db.query(rest) {
                Ok(q) => match q.solve() {
                    Ok(Some(points)) => {
                        if points.is_empty() {
                            println!("no solutions");
                        }
                        for p in points {
                            let coords: Vec<String> = q
                                .free_vars()
                                .iter()
                                .zip(&p)
                                .map(|(&v, c)| format!("{} = {c}", q.var_names()[v]))
                                .collect();
                            println!("{}", coords.join(", "));
                        }
                    }
                    Ok(None) => println!("infinite solution set; use `query` for the closed form"),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error: {e}"),
            },
            "fp" => {
                let Some((k_str, q_str)) = rest.split_once(char::is_whitespace) else {
                    println!("usage: fp <bits> <query>");
                    continue;
                };
                let Ok(k) = k_str.parse::<u64>() else {
                    println!("bad bit budget: {k_str}");
                    continue;
                };
                match db.query_fp(q_str.trim(), k) {
                    Ok(Some(q)) => print_query(&q),
                    Ok(None) => println!("undefined (finite precision semantics, k = {k})"),
                    Err(e) => println!("error: {e}"),
                }
            }
            "datalog" => match std::fs::read_to_string(rest) {
                Ok(src) => match parse_program(&src) {
                    Ok(program) => match db.run_datalog(&program, 64) {
                        Ok(stats) => println!(
                            "fixpoint in {} iterations ({} QE calls, {:.2?})",
                            stats.iterations, stats.qe_calls, stats.wall
                        ),
                        Err(e) => println!("error: {e}"),
                    },
                    Err(e) => println!("parse error: {e}"),
                },
                Err(e) => println!("cannot read {rest}: {e}"),
            },
            "save" => match storage::save(&db) {
                Ok(text) => match std::fs::write(rest, text) {
                    Ok(()) => println!("saved to {rest}"),
                    Err(e) => println!("cannot write {rest}: {e}"),
                },
                Err(e) => println!("cannot serialize: {e}"),
            },
            "load" => match std::fs::read_to_string(rest) {
                Ok(text) => match storage::load(&text) {
                    Ok(loaded) => {
                        db = loaded;
                        println!("loaded; schema:");
                        for (name, arity) in db.schema() {
                            println!("  {name}/{arity}");
                        }
                    }
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("cannot read {rest}: {e}"),
            },
            other => println!("unknown command `{other}`; try `help`"),
        }
    }
}

fn define(db: &mut ConstraintDb, rest: &str) {
    // define Name(v1, v2) := <formula>
    let head = Parser::new(rest).and_then(|mut p| {
        let (name, vars) = p.head()?;
        p.require(Token::ColonEq)?;
        Ok((name, vars, p.rest()))
    });
    let (name, vars, body) = match head {
        Ok(parts) => parts,
        Err(e) => {
            println!("usage: define Name(v1, v2) := <formula> ({e})");
            return;
        }
    };
    match db.define(name, &vars, body) {
        Ok(()) => println!("defined {name}/{}", vars.len()),
        Err(e) => println!("error: {e}"),
    }
}

fn print_query(q: &QueryResult) {
    println!("{}", q.display());
    if !q.is_exact() {
        println!("  (involves approximation)");
    }
}

fn help() {
    println!(
        "\
  define Name(v, …) := <formula>   store a relation (CALC_F syntax)
  query <formula>                  closed-form answer (QE)
  solve <formula>                  numeric solutions of a finite answer
  fp <bits> <formula>              finite precision semantics |=_QE^F
  datalog <file>                   run a Datalog¬ program against the db
  schema                           list relations
  save <file> / load <file>        text-format persistence
  quit"
    );
}
