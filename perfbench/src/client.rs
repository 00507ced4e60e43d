//! The benchmark's side of the server process, and the `CWQ1` client.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use clusterworx::ingest::{encode_query, parse_reply, QueryReply};
use cwx_store::QuerySpec;

use crate::server::SERVE_FLAG;

/// A running server process.
pub struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    out: BufReader<ChildStdout>,
    /// Address agents and dashboards connect to.
    pub addr: String,
}

/// `key=value` words of a line, numeric values only.
pub fn kv(words: &str) -> BTreeMap<String, f64> {
    words
        .split_whitespace()
        .filter_map(|w| {
            let (k, v) = w.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn broken(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

impl ServerProc {
    /// Start the server for `workload` on a store at `dir` and wait
    /// until it listens.
    pub fn spawn(workload: &str, dir: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .args([SERVE_FLAG, workload, &dir.to_string_lossy()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut sp = ServerProc {
            child,
            stdin,
            out,
            addr: String::new(),
        };
        let line = sp.answer()?;
        let addr = line
            .strip_prefix("READY ")
            .ok_or_else(|| broken("server did not start"))?;
        sp.addr = addr.to_string();
        Ok(sp)
    }

    fn answer(&mut self) -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.out.read_line(&mut line)? == 0 {
                return Err(broken("server exited"));
            }
            if let Some(a) = line.trim_end().strip_prefix('@') {
                return Ok(a.to_string());
            }
        }
    }

    /// Send one command and return its answer line.
    pub fn cmd(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.stdin, "{line}")?;
        self.stdin.flush()?;
        self.answer()
    }

    /// `MARK`: (process CPU seconds, samples ingested, Unix ns).
    pub fn mark(&mut self) -> io::Result<(f64, u64, u64)> {
        let a = self.cmd("MARK")?;
        let w: Vec<&str> = a.split_whitespace().collect();
        let p = |i: usize| w.get(i).ok_or_else(|| broken("short MARK"));
        Ok((
            p(1)?.parse().map_err(|_| broken("bad MARK"))?,
            p(2)?.parse().map_err(|_| broken("bad MARK"))?,
            p(3)?.parse().map_err(|_| broken("bad MARK"))?,
        ))
    }

    /// `WAIT`: block until `samples` are ingested or `limit_ms` passes;
    /// returns (reached, Unix ns at return, samples ingested).
    pub fn wait_samples(&mut self, samples: u64, limit_ms: u64) -> io::Result<(bool, u64, u64)> {
        let a = self.cmd(&format!("WAIT {samples} {limit_ms}"))?;
        let w: Vec<&str> = a.split_whitespace().collect();
        match w.as_slice() {
            ["WAITED", ok, ns, got] => Ok((
                *ok == "true",
                ns.parse().map_err(|_| broken("bad WAITED"))?,
                got.parse().map_err(|_| broken("bad WAITED"))?,
            )),
            _ => Err(broken("bad WAITED")),
        }
    }

    /// `FINISH`: drain and stop; returns every answer line.
    pub fn finish(mut self) -> io::Result<Vec<String>> {
        writeln!(self.stdin, "FINISH")?;
        self.stdin.flush()?;
        let mut lines = Vec::new();
        while let Ok(a) = self.answer() {
            lines.push(a);
        }
        self.child.wait()?;
        Ok(lines)
    }

    /// Stop without a report (a discarded set-up).
    pub fn quit(mut self) -> io::Result<()> {
        writeln!(self.stdin, "QUIT")?;
        self.stdin.flush()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // an early return on an error path must not leave it running
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking `CWQ1` round trip. The outer error is the connection;
/// the inner one is the server's answer (shed, bad request, budget).
pub fn query(stream: &mut TcpStream, spec: &QuerySpec) -> io::Result<Result<QueryReply, String>> {
    let body = encode_query(spec);
    let mut frame = Vec::with_capacity(body.len() + 4);
    cwx_net::frame::put_frame(&mut frame, &body);
    stream.write_all(&frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > 64 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "reply too large",
        ));
    }
    let mut reply = vec![0u8; n];
    stream.read_exact(&mut reply)?;
    Ok(parse_reply(&reply))
}
