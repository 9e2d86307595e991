// A sequential design touching most of the grammar.
module top_module #(parameter W = 8) (
    input clk,
    input reset,
    input [W-1:0] d,
    input [1:0] sel,
    output reg [W-1:0] q,
    output [3:0] nib,
    output done
);
    localparam [1:0] IDLE = 2'd0, RUN = 2'b01;
    reg [1:0] state;
    integer i;
    wire [15:0] wide = {2{d}};
    assign nib = wide[sel * 4 +: 4];
    assign done = (state == RUN) && &q ? 1'b1 : 1'b0;
    always @(posedge clk or negedge reset) begin : seq
        if (!reset)
            state <= IDLE;
        else if (state == IDLE) begin
            state <= RUN;
        end else
            state <= state;
    end
    always @(*) begin
        case (sel)
            2'b00, 2'b11: q = d;
            2'b01: begin q = ~d; end
            default: begin
                for (i = 0; i < W; i = i + 1)
                    q[i] = d[W - 1 - i];
            end
        endcase
    end
endmodule
