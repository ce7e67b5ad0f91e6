//! A timestamping reader for the server's streamed completions.
//!
//! The response is HTTP/1.1 with chunked transfer encoding carrying
//! server-sent events (`data: <payload>\n\n`). Nothing lines up on read
//! boundaries: one `read` may end inside the status line, inside a chunk
//! size, inside a chunk's payload, or between the two newlines that end an
//! event, and one chunk may hold several events. [`SseDecoder`] is a
//! byte-level state machine fed whatever each `read` returned together with
//! the instant it returned; every event is stamped with the instant of the
//! read that completed it, which is when a client could first act on it.

/// One complete server-sent event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<T> {
    /// The `data:` payload (multiple `data:` lines joined with `\n`).
    pub data: String,
    /// When the read that completed this event returned.
    pub at: T,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Reading the status line and headers.
    Head,
    /// Reading a chunk-size line.
    ChunkSize,
    /// Inside a chunk's payload, with this many bytes left.
    ChunkData(usize),
    /// Expecting the CRLF that closes a chunk.
    ChunkEnd,
    /// Reading the CRLF after the terminal zero-size chunk.
    Trailer,
    /// A content-length body with this many bytes left.
    Plain(usize),
    /// The response is complete.
    Done,
}

/// Incremental decoder for one streamed response.
#[derive(Debug)]
pub struct SseDecoder<T> {
    state: State,
    /// Raw bytes received but not yet consumed by the framing layer.
    raw: Vec<u8>,
    /// De-chunked body bytes not yet split into events.
    body: Vec<u8>,
    status: Option<u16>,
    chunked: bool,
    events: Vec<Event<T>>,
}

impl<T: Copy> Default for SseDecoder<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> SseDecoder<T> {
    /// A decoder waiting for the status line.
    pub fn new() -> Self {
        SseDecoder {
            state: State::Head,
            raw: Vec::new(),
            body: Vec::new(),
            status: None,
            chunked: false,
            events: Vec::new(),
        }
    }

    /// The HTTP status, once the head has arrived.
    pub fn status(&self) -> Option<u16> {
        self.status
    }

    /// Whether the response ended cleanly (terminal chunk, or the whole
    /// content-length body).
    pub fn finished(&self) -> bool {
        self.state == State::Done
    }

    /// Events completed so far, in arrival order.
    pub fn events(&self) -> &[Event<T>] {
        &self.events
    }

    /// For a non-chunked response, the body received so far.
    pub fn plain_body(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Consumes the bytes of one read that returned at `at`.
    ///
    /// # Errors
    ///
    /// Malformed framing (bad status line, bad chunk size, missing CRLF).
    pub fn feed(&mut self, bytes: &[u8], at: T) -> Result<(), String> {
        self.raw.extend_from_slice(bytes);
        let mut pos = 0;
        loop {
            let rest = &self.raw[pos..];
            match self.state {
                State::Done => break,
                State::Head => {
                    let Some(end) = find(rest, b"\r\n\r\n") else {
                        break;
                    };
                    let head = String::from_utf8_lossy(&rest[..end]).into_owned();
                    pos += end + 4;
                    self.parse_head(&head)?;
                }
                State::ChunkSize => {
                    let Some(end) = find(rest, b"\r\n") else {
                        break;
                    };
                    let line = String::from_utf8_lossy(&rest[..end]).into_owned();
                    let size_text = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_text, 16)
                        .map_err(|_| format!("bad chunk size {line:?}"))?;
                    pos += end + 2;
                    self.state = if size == 0 {
                        State::Trailer
                    } else {
                        State::ChunkData(size)
                    };
                }
                State::ChunkData(left) => {
                    if rest.is_empty() {
                        break;
                    }
                    let take = left.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    pos += take;
                    self.state = if take == left {
                        State::ChunkEnd
                    } else {
                        State::ChunkData(left - take)
                    };
                }
                State::ChunkEnd | State::Trailer => {
                    if rest.len() < 2 {
                        break;
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err("chunk not followed by CRLF".to_string());
                    }
                    pos += 2;
                    self.state = if self.state == State::Trailer {
                        State::Done
                    } else {
                        State::ChunkSize
                    };
                }
                State::Plain(left) => {
                    let take = left.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    pos += take;
                    self.state = if take == left {
                        State::Done
                    } else {
                        State::Plain(left - take)
                    };
                    if take == rest.len() {
                        break;
                    }
                }
            }
        }
        self.raw.drain(..pos);
        if self.chunked {
            self.split_events(at);
        }
        Ok(())
    }

    fn parse_head(&mut self, head: &str) -> Result<(), String> {
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        self.status = Some(status);
        let mut length = 0usize;
        for line in head.lines().skip(1) {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                self.chunked = true;
            } else if k == "content-length" {
                length = v.parse().map_err(|_| format!("bad content-length {v:?}"))?;
            }
        }
        self.state = match (self.chunked, length) {
            (true, _) => State::ChunkSize,
            (false, 0) => State::Done,
            (false, n) => State::Plain(n),
        };
        Ok(())
    }

    fn split_events(&mut self, at: T) {
        let mut start = 0;
        while let Some(end) = find(&self.body[start..], b"\n\n") {
            let block = String::from_utf8_lossy(&self.body[start..start + end]).into_owned();
            start += end + 2;
            let data: Vec<&str> = block
                .lines()
                .filter_map(|l| l.strip_prefix("data:"))
                .map(|d| d.strip_prefix(' ').unwrap_or(d))
                .collect();
            if !data.is_empty() {
                self.events.push(Event {
                    data: data.join("\n"),
                    at,
                });
            }
        }
        self.body.drain(..start);
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact bytes the server writes for a stream of `payloads`.
    fn wire(payloads: &[&str]) -> Vec<u8> {
        let mut out = b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n".to_vec();
        for p in payloads {
            let event = format!("data: {p}\n\n");
            out.extend_from_slice(format!("{:x}\r\n", event.len()).as_bytes());
            out.extend_from_slice(event.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    const PAYLOADS: [&str; 4] = [
        r#"{"token":"- name"}"#,
        r#"{"token":"\n  x: y"}"#,
        r#"{"completion":"a\n\nb","snippet":"s"}"#,
        "[DONE]",
    ];

    #[test]
    fn every_split_point_yields_the_same_events() {
        let bytes = wire(&PAYLOADS);
        for cut in 0..=bytes.len() {
            let mut d = SseDecoder::new();
            d.feed(&bytes[..cut], 1u32).unwrap();
            d.feed(&bytes[cut..], 2u32).unwrap();
            assert!(d.finished(), "cut at {cut}");
            assert_eq!(d.status(), Some(200));
            let data: Vec<&str> = d.events().iter().map(|e| e.data.as_str()).collect();
            // The escaped "\n\n" inside the JSON payload is two characters
            // each, so it never ends an event.
            assert_eq!(data, PAYLOADS, "cut at {cut}");
        }
    }

    #[test]
    fn byte_at_a_time_stamps_each_event_with_its_completing_read() {
        let bytes = wire(&PAYLOADS);
        let mut d = SseDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.feed(std::slice::from_ref(b), i).unwrap();
        }
        assert!(d.finished());
        let ats: Vec<usize> = d.events().iter().map(|e| e.at).collect();
        // Each event completes at the second newline of its `data:` block,
        // which precedes the chunk's closing CRLF.
        let mut expected = Vec::new();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let mut from = 0;
        for p in PAYLOADS {
            let needle = format!("data: {p}\n\n");
            let start = text[from..].find(&needle).unwrap() + from;
            expected.push(start + needle.len() - 1);
            from = start + needle.len();
        }
        assert_eq!(ats, expected);
    }

    #[test]
    fn one_chunk_may_carry_several_events_and_events_may_span_chunks() {
        let head = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
        let body = "data: one\n\ndata: tw";
        let tail = "o\n\ndata: [DONE]\n\n";
        let mut bytes = head.to_vec();
        for part in [body, tail] {
            bytes.extend_from_slice(format!("{:X}\r\n{part}\r\n", part.len()).as_bytes());
        }
        bytes.extend_from_slice(b"0\r\n\r\n");
        let mut d = SseDecoder::new();
        d.feed(&bytes, 0u8).unwrap();
        let data: Vec<&str> = d.events().iter().map(|e| e.data.as_str()).collect();
        assert_eq!(data, ["one", "two", "[DONE]"]);
        assert!(d.finished());
    }

    #[test]
    fn cut_short_stream_is_not_finished() {
        let bytes = wire(&PAYLOADS);
        let mut d = SseDecoder::new();
        d.feed(&bytes[..bytes.len() - 3], 0u8).unwrap();
        assert!(!d.finished());
        assert_eq!(d.events().len(), PAYLOADS.len());
    }

    #[test]
    fn plain_error_responses_are_read_by_content_length() {
        let bytes = b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain\r\ncontent-length: 10\r\nretry-after: 1\r\n\r\nqueue full";
        for cut in 0..=bytes.len() {
            let mut d = SseDecoder::new();
            d.feed(&bytes[..cut], 0u8).unwrap();
            d.feed(&bytes[cut..], 0u8).unwrap();
            assert!(d.finished());
            assert_eq!(d.status(), Some(503));
            assert_eq!(d.plain_body(), "queue full");
            assert!(d.events().is_empty());
        }
    }

    #[test]
    fn malformed_chunk_size_is_an_error() {
        let mut d = SseDecoder::new();
        let bytes = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n";
        assert!(d.feed(bytes, 0u8).is_err());
    }
}
