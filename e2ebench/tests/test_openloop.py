import asyncio
import json
import os

import workloads


def test_latency_counts_from_the_due_time_not_the_send_time(tmp_path):
    """A request sent late (the generator stalled) is charged the stall:
    its latency runs from when it was due."""
    path = os.path.join(str(tmp_path), "s")

    async def handle(reader, writer):
        await reader.readline()
        await asyncio.sleep(0.05)
        frame = {"event": "result", "status": "ok",
                 "result": {"lut_count": 1, "clb_count": 1,
                            "blif": ".model m\n.end\n"}}
        writer.write((json.dumps(frame) + "\n").encode())
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_unix_server(handle, path)
        async with server:
            loop = asyncio.get_running_loop()
            due = loop.time() - 0.5  # already half a second late
            return await workloads._request(path, "rd84", "0", due)

    record = asyncio.run(scenario())
    job = workloads._serve_jobs([record])[0]
    assert record["sent"] - record["due"] >= 0.5
    assert job.latency_s >= 0.55
    assert record["done"] - record["sent"] < job.latency_s - 0.4
