"""Echo helper of the reference clock: copies every byte read from
standard input back to standard output until end of input, so that the
clock can time round trips between two processes."""

import os

while True:
    data = os.read(0, 64)
    if not data:
        break
    os.write(1, data)
