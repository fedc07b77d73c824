//! The one newline framer of every protocol endpoint: stdin and
//! `--script` serving ([`Service::serve`](crate::Service::serve)), the
//! reactor's connections, and `sc-cluster`'s `Tcp` transport (which
//! reads responses uncapped). Every byte a client sends is adversarial
//! input, so a server applies these rules, in this order, from here
//! ([`LineBuf::answer_next`]): answer every complete line; if
//! [`MAX_LINE_BYTES`] or more unterminated bytes remain, answer the one
//! error and stop reading; at end of input, answer the unterminated
//! tail as the last line.

use sc_engine::flatjson::{encode_object, FlatObject, Scalar};
use std::borrow::Cow;
use std::io::{ErrorKind, Read};

/// The longest request line is one byte shorter: 16 MiB, far above any
/// line a shipped client sends (see `docs/PROTOCOL.md`).
pub const MAX_LINE_BYTES: usize = 1 << 24;

/// The buffer's first size; it doubles when a read finds it full, so a
/// server's buffer stops at [`MAX_LINE_BYTES`].
const FIRST_READ: usize = 16 * 1024;

/// A read buffer that splits its input into lines, scanning each byte
/// once however many reads a line spans. It allocates on the first read.
#[derive(Default)]
pub struct LineBuf {
    /// Unconsumed input is `buf[start..end]`; reads fill `buf[end..]`.
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scanned]` holds no `\n`.
    scanned: usize,
    end: usize,
    /// The source ended, or a line was refused.
    eof: bool,
}

impl LineBuf {
    /// One read from `src` straight into the buffer's tail (interrupted
    /// reads are retried). Returns the byte count; `0` is end of input.
    ///
    /// # Errors
    /// Propagates read errors, `WouldBlock` and timeouts included.
    pub fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize((2 * self.buf.len()).max(FIRST_READ), 0);
        }
        let n = loop {
            match src.read(&mut self.buf[self.end..]) {
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.end += n;
        self.eof |= n == 0;
        Ok(n)
    }

    /// The next line without its `\n`, invalid UTF-8 replaced by U+FFFD;
    /// at end of input, the unterminated tail is the last line.
    pub fn next_line(&mut self) -> Option<Cow<'_, str>> {
        let (line_end, next) =
            match self.buf[self.scanned..self.end].iter().position(|&b| b == b'\n') {
                Some(at) => (self.scanned + at, self.scanned + at + 1),
                None if self.eof && self.start < self.end => (self.end, self.end),
                None => {
                    self.scanned = self.end;
                    return None;
                }
            };
        let line = &self.buf[self.start..line_end];
        self.start = next;
        self.scanned = next;
        Some(String::from_utf8_lossy(line))
    }

    /// Bytes held that no line has consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Whether reading is over.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// A server's next answer: `respond`'s answer to the next line
    /// (`Some(None)` if it gives none), or, once no line is left and
    /// [`MAX_LINE_BYTES`] or more unterminated bytes are held, the one
    /// error: those bytes are dropped and reading stops. `None` when no
    /// line is buffered.
    pub fn answer_next(
        &mut self,
        respond: impl FnOnce(&str) -> Option<String>,
    ) -> Option<Option<String>> {
        if let Some(line) = self.next_line() {
            return Some(respond(&line));
        }
        if self.pending() < MAX_LINE_BYTES {
            return None;
        }
        *self = Self { eof: true, ..Self::default() };
        let mut error = FlatObject::new();
        error.insert("ok".into(), Scalar::Bool(false));
        let message = format!("line too long: no newline within {MAX_LINE_BYTES} bytes");
        error.insert("error".into(), Scalar::Str(message));
        Some(Some(encode_object(&error)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that hands out its bytes `step` at a time.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn all_lines(input: &[u8], step: usize) -> Vec<String> {
        let mut src = Trickle { bytes: input, step };
        let mut lines = LineBuf::default();
        let mut got = Vec::new();
        loop {
            while let Some(line) = lines.next_line() {
                got.push(line.into_owned());
            }
            if lines.is_eof() {
                return got;
            }
            lines.fill(&mut src).unwrap();
        }
    }

    #[test]
    fn lines_split_alike_however_the_reads_fall() {
        let input = b"ab\n\ncd\r\n\xffe\nlast";
        let want = ["ab", "", "cd\r", "\u{fffd}e", "last"];
        for step in [1, 2, 3, 7, 1 << 20] {
            assert_eq!(all_lines(input, step), want, "step {step}");
        }
        assert_eq!(all_lines(b"x\n", 1), ["x"], "a final newline ends no empty line");
        assert!(all_lines(b"", 1).is_empty());
    }

    #[test]
    fn a_line_longer_than_the_buffer_grows_it() {
        let long = vec![b'y'; 3 * FIRST_READ + 5];
        let mut input = long.clone();
        input.extend_from_slice(b"\nz\n");
        let got = all_lines(&input, 4096);
        assert_eq!(got, [String::from_utf8(long).unwrap(), "z".to_string()]);
    }

    #[test]
    fn servers_answer_lines_then_refuse_only_an_unterminated_limit() {
        let echo = |line: &str| (!line.is_empty()).then(|| format!("<{line}>"));
        let mut lines = LineBuf::default();
        lines.fill(&mut &b"a\n\nb"[..]).unwrap();
        assert_eq!(lines.answer_next(echo), Some(Some("<a>".to_string())));
        assert_eq!(lines.answer_next(echo), Some(None), "a blank line gets no answer");
        assert_eq!(lines.answer_next(echo), None, "b is not terminated yet");

        let bytes = vec![b'x'; MAX_LINE_BYTES];
        let mut lines = LineBuf::default();
        let mut src = Trickle { bytes: &bytes[1..], step: usize::MAX };
        while lines.pending() < MAX_LINE_BYTES - 1 {
            lines.fill(&mut src).unwrap();
            assert_eq!(lines.answer_next(echo), None, "one byte short of the limit");
        }
        lines.fill(&mut &bytes[..1]).unwrap();
        let error = format!(
            r#"{{"error":"line too long: no newline within {MAX_LINE_BYTES} bytes","ok":false}}"#
        );
        assert_eq!(lines.answer_next(echo), Some(Some(error)));
        assert!(lines.is_eof() && lines.pending() == 0 && lines.answer_next(echo).is_none());
    }
}
